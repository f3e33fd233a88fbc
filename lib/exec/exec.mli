(** Pluggable execution layer for the embarrassingly parallel parts of the
    pipeline.

    The extended-nibble strategy's Steps 1–2 and the per-object load
    evaluation touch only one object's data at a time, so they can be
    fanned out across OCaml 5 domains. A runner abstracts over the two
    backends: {!sequential} runs tasks inline in index order; a domain
    pool ({!create} with [jobs > 1]) runs them on [jobs - 1] worker
    domains plus the calling domain, pulling indices from a shared atomic
    counter.

    Determinism contract: {!map} always returns [\[| f 0; …; f (n-1) |\]]
    — results land in index order regardless of which domain computed
    them — so a pipeline whose tasks are pure functions of their index
    produces bit-identical output at any [jobs]. Tasks must not touch
    shared mutable state. {!Hbn_obs.Trace} is domain-safe (a mutex
    serializes emission), so a span inside a task is not a race — but
    its position in the trace would depend on scheduling, so pipeline
    tasks still emit no spans and leave tracing to the sequential merge
    phases, keeping traces byte-identical at any job count. *)

type t

val sequential : t
(** The inline backend: [map sequential n f] is [Array.init n f]. *)

val create : jobs:int -> t
(** [create ~jobs] is a runner executing up to [jobs] tasks concurrently.
    [jobs <= 1] returns {!sequential}; otherwise the runner targets
    [jobs - 1] worker domains plus the caller. Workers are spawned
    {e lazily}: a map of [n] tasks spins up at most [min (jobs - 1)
    (n - 1)] domains, so small fan-outs on a wide runner never pay for
    idle domains. Call {!shutdown} when done, or use {!with_runner}. *)

val jobs : t -> int
(** Configured concurrency width: [1] for {!sequential}. Independent of
    how many workers have actually been spawned
    ({!spawned_workers}). *)

val spawned_workers : t -> int
(** Worker domains currently running: [0] for {!sequential} or an unused
    pool, at most [jobs t - 1]. Grows monotonically with demand. *)

val current_worker : unit -> int
(** The executor slot of the calling domain: [0] on the main (or any
    non-pool) domain, [i >= 1] inside the [i]-th worker domain of a pool.
    Observability sinks use this to tag each event with the domain that
    produced it ({!Hbn_obs.Sink.with_attrs}); a domain spawned by one
    pool keeps its slot for the pool's lifetime. *)

val shutdown : t -> unit
(** Joins the pool's worker domains. Idempotent; a no-op on
    {!sequential}. Using a runner after shutdown raises
    [Invalid_argument]. *)

val with_runner : jobs:int -> (t -> 'a) -> 'a
(** [with_runner ~jobs f] runs [f] with a fresh runner and shuts it down
    afterwards, also on exceptions. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map r n f] computes [f i] for [0 <= i < n] — concurrently on a pool
    backend — and returns the results in index order. A pool hands out
    the indices in blocks of {!auto_chunk} consecutive ones per claim on
    its shared counter, and runs each block in ascending order; the block
    size changes scheduling, never results. If any task raises, one of
    the raised exceptions is re-raised in the caller after all domains
    quiesce (remaining tasks may be skipped). Not reentrant: do not call
    [map] on the same pool from inside a task. *)

val iter : t -> int -> (int -> unit) -> unit
(** [iter r n f] is [map] without result collection. *)

val auto_chunk : jobs:int -> int -> int
(** [auto_chunk ~jobs n = max 1 (n / (8 * jobs))]: the block size of a
    [jobs]-wide {!map} over [n] tasks. 8 claimable blocks per executor
    leave enough slack for dynamic load balancing, few enough that
    contention on the counter (one atomic fetch-and-add per claim)
    becomes negligible. *)
