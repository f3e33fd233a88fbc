(** The epoch-based adaptive serving tier.

    Closes the loop the ROADMAP's headline item asks for: a long-running
    loop streams request traffic epoch by epoch through the incremental
    {!Hbn_loads.Loads} engine, one {!Hbn_obs.Monitor} armed over the
    serving telemetry,
    and — when the monitor's alerts say the pattern shifted — re-optimizes
    {e only the hot objects} at the next epoch boundary, gated by a
    migration-cost model and hysteresis.

    {2 The loop, per epoch}

    + Build the epoch's workload (a {!Drift} generator or a replayed
      table) and rebuild the load engine on the current copy sets.
    + If the {e previous} epoch raised any alert on a non-reconfiguration
      series: rank the [top_k] hottest objects from the engine
      ({!hot_objects}: each object's load over the [2 top_k] hottest
      sites — computed only in these epochs) and hill-climb their copy
      sets through checkpoint/rollback proposals. Every accepted move is priced at
      [obj_size * edges_moved] bytes (replication pays the distance to
      the nearest existing copy; migration the src-dst path; dropping a
      copy is free) against the hard per-epoch [budget_bytes]. The whole
      climb then commits only if
      [bytes <= hysteresis * congestion_saved * slots_per_epoch *
       msg_bytes] — replacement traffic never exceeds the configured
      fraction of the traffic the congestion drop saves; otherwise the
      epoch rolls back to its checkpoint and serves stale.
    + Serve [slots_per_epoch] slots: each slot accounts the engine's
      per-edge loads into the telemetry collector ({!Telemetry.send_many}
      batched per edge, plus hashed off-edge jitter), records
      reconfiguration work on the boundary slot, and feeds the monitor
      one observation per series.

    The per-epoch stale and oracle counterfactuals are only priced,
    never mutated: {!Hbn_placement.Placement.congestion} of
    {!Hbn_placement.Placement.nearest}, the same nearest-copy model and
    bit-identical to the engine's congestion on the same copy sets. So
    each epoch builds exactly one engine, for the serving state.

    Under a trace sink each epoch is a [serve.epoch] span with children
    [serve.epoch.engine], [serve.epoch.climb], [serve.epoch.pricing] and
    [serve.epoch.oracle], plus a [serve.epoch.turnaround_ms] gauge per
    epoch. The gauge goes to the trace only, never to the telemetry or
    the monitor: those drive re-optimization and stay clock-free.

    Everything downstream of the workload tables is sequential and
    PRNG-seeded per epoch; the parallel [exec] only accelerates the
    initial/oracle placements, which are bit-identical at any job count —
    so state, telemetry and alerts are byte-identical across reruns and
    [--jobs]. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor

type config = {
  slots_per_epoch : int;  (** slots per epoch (>= 1) *)
  epochs : int;  (** epochs to serve (>= 1) *)
  top_k : int;  (** hot objects eligible per re-optimization (>= 1) *)
  budget_bytes : int;  (** hard cap on migration bytes per epoch (>= 0) *)
  hysteresis : float;
      (** max migration bytes as a fraction of the bytes the congestion
          drop saves over the coming epoch (>= 0) *)
  obj_size : int;  (** bytes one copy transfer pays per edge (>= 1) *)
  msg_bytes : int;  (** bytes per request message (>= 1) *)
  climb_iters : int;  (** hill-climb proposals per re-optimization *)
  seed : int;  (** seeds the per-epoch climb PRNG and the slot jitter *)
  oracle : bool;
      (** also run the full static strategy on every epoch's table — the
          fresh re-place the bench measures recovery against *)
  capacity : int;  (** telemetry points retained (>= 2) *)
}

val default : config
(** 16 slots x 32 epochs, [top_k] 4, 4 KiB budget, hysteresis 0.5,
    64-byte objects, 32-byte messages, 200 climb proposals, seed 1,
    oracle on, capacity 512. *)

type source =
  | Generator of Drift.t  (** workloads from a drift generator *)
  | Tables of Workload.t array
      (** one table per epoch (a replay); must cover [config.epochs] *)

type epoch_stats = {
  s_epoch : int;
  s_requests : int;  (** requests served: table total x slots *)
  s_congestion : float;  (** serving congestion (after any commit) *)
  s_stale : float;  (** the frozen epoch-0 placement on this table *)
  s_oracle : float;  (** fresh re-place; [nan] when the oracle is off *)
  s_reoptimized : bool;  (** a re-optimization committed this epoch *)
  s_bytes_migrated : int;  (** migration bytes paid (0 unless committed) *)
  s_replications : int;  (** copies added by the commit *)
  s_migrations : int;  (** copies moved by the commit *)
  s_contractions : int;  (** copies dropped by the commit *)
  s_alerts : int;  (** monitor alerts raised during the epoch *)
}

type outcome = {
  epochs : epoch_stats list;  (** chronological *)
  total_requests : int;
  total_bytes_migrated : int;
  reoptimized_epochs : int;
  verdict : Monitor.verdict;
  alerts : Monitor.alert list;
  telemetry : Telemetry.t;  (** the serving series, for emit/report *)
  monitor : Monitor.t;  (** prefix ["serve"], matching the telemetry *)
  final_copies : int list array;  (** per-object copy sets at the end *)
}

val run : ?exec:Hbn_exec.Exec.t -> config -> source -> outcome
(** Serves [config.epochs] epochs. The initial placement is the static
    strategy on the first epoch's table; an object that only starts
    requesting in a later epoch is bootstrapped with one copy on its
    heaviest requesting leaf (both in the serving state and in the
    frozen stale baseline, so the comparison stays fair). Raises
    [Invalid_argument] on an invalid config, [Tables [||]], or tables
    shorter than [config.epochs]. *)

val hot_objects : Hbn_loads.Loads.t -> k:int -> int array
(** The objects a re-optimization may touch: each object's load summed
    over the [2k] sites (edges and buses) with the highest relative load,
    at most [k] of them, largest total first, ties to the lower id;
    objects with nothing on those sites are left out. Sites are ranked
    by [Hbn_placement.Placement.rank_sites], ties in the evaluator's scan
    order (edges by id, then buses by id). A bus counts
    its incident edges, so an edge that is hot itself and next to a hot
    bus counts twice. Each object's per-edge load comes from
    {!Hbn_loads.Loads.object_edge_loads}: O(objects · n) in all. *)

val tables : Drift.t -> epochs:int -> Workload.t array
(** The generator's first [epochs] tables — what {!save_tables} records
    for a replay. *)

val save_tables : string -> Workload.t array -> (unit, string) result
(** Writes the tables to a file:

    {v
    hbn-serve-tables 1
    epochs 2
    nodes 7
    objects 3
    e 0 1 4 12 3    # e <epoch> <object> <leaf> <reads> <writes>
    v}

    one sparse [e] line per non-zero cell. An empty array or an
    unwritable path is an [Error]. *)

val load_tables : tree:Tree.t -> string -> (Workload.t array, string) result
(** Reads tables saved by {!save_tables} back over [tree], under the file
    conventions of {!Hbn_util.Text}. The magic line and the three counts
    come first, in that order; [nodes] must be [Tree.n tree], the other
    counts at least 1, and epochs x objects x nodes cells must fit in
    [Sys.max_array_length]. [e] lines follow the rules of a workload's
    [rate] lines ({!Hbn_workload.Workload_io.set_rate}), per epoch. Every
    error carries its line (["line 6: duplicate rate …"]); an
    unreadable file is an [Error]. Never raises. *)
