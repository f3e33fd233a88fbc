(** Bounded-memory per-round telemetry time series.

    The end-state instrumentation ({!Attribution} tables, span
    durations) says {e where} load ended up; this collector records how
    it {e evolved}: one sample per runtime round holding messages
    sent/delivered/dropped, payload bytes, retransmissions, duplicate
    suppressions, the live-node count, and per-edge utilization — the
    4 busiest edges of the round exactly, everything else folded into
    one aggregate. That is the congestion-over-rounds signal the paper's
    claim (congestion, not hop count, predicts execution time) needs
    under drift and faults.

    Memory is bounded no matter how long the run: a collector holds at
    most [capacity] points. When round [capacity + 1] arrives, adjacent
    points are folded pairwise — counters summed, [live_nodes] taking
    the minimum, edge tables merged and re-cut to the top 4 — so the
    series keeps full time coverage at halved resolution. Every point
    records how many rounds it spans, and folding is a pure function of
    the sample sequence, so the resulting series is deterministic: the
    same run produces the same points, bit for bit, at any job count.

    Recording is driven by the synchronous engines
    ({!Hbn_dist.Runtime.run}, [Hbn_sim.Sim.run]): {!begin_round} opens a
    round, the per-message hooks accumulate into it, {!end_round} closes
    it. Protocol-level hooks ({!retransmit}, {!duplicate}) may fire from
    node step functions between the two — they attribute to the open
    round. A collector is single-writer by construction (the engines are
    sequential); it is not a concurrent data structure. *)

type t

type point = {
  round : int;  (** last round folded into this point *)
  vtime : float;
      (** virtual time of the last round folded into this point — the
          bucket's position on the virtual-time axis. Synchronous engines
          leave the default [float_of_int round]; the event-driven ones
          pass the engine clock, whose ticks may skip round numbers. *)
  rounds : int;  (** rounds covered; 1 = exact per-round sample *)
  sent : int;  (** sends attempted, including later-dropped ones *)
  delivered : int;  (** sends that reached an inbox: [sent - dropped] *)
  dropped : int;  (** sends lost to faults *)
  bytes : int;  (** payload bytes attempted (see the engine's sizer) *)
  retransmits : int;  (** link-layer retransmissions *)
  dup_suppressed : int;  (** duplicate deliveries suppressed *)
  replications : int;  (** copies added by reconfiguration *)
  migrations : int;  (** copies moved by reconfiguration *)
  contractions : int;  (** copies dropped by reconfiguration *)
  live_nodes : int;  (** nodes not crashed (minimum over folded rounds) *)
  edges : (int * int) list;
      (** the busiest edges as [(edge, traversals)], traversal count
          descending, ties by edge id; at most 4 entries *)
  other_edges : int;  (** traversals over edges outside [edges] *)
}

val create : ?capacity:int -> num_edges:int -> unit -> t
(** A fresh collector. [capacity] (default 256, minimum 2) bounds the
    number of retained points. [num_edges] sizes the per-round scratch
    counters. *)

val begin_round : ?vtime:float -> t -> round:int -> unit
(** Opens the sample for [round]. Rounds must be opened in increasing
    order; re-opening the current round is an error. [vtime] (default
    [float_of_int round]) positions the sample on the virtual-time axis
    and must also increase strictly — the event-driven engines pass
    their clock here, the synchronous ones leave the default, keeping
    both axes identical in the synchronous regime. *)

val send : t -> edge:int -> bytes:int -> unit
(** Records one attempted send of [bytes] payload bytes over [edge]
    into the open round. *)

val send_many : t -> edge:int -> count:int -> bytes:int -> unit
(** Records [count] attempted sends totalling [bytes] payload bytes
    over [edge] in one call — the batch form the serving tier uses to
    account a whole slot's traffic per edge without a per-message loop.
    A negative [edge] counts into [sent]/[bytes] only (off-edge
    traffic, e.g. jitter), leaving the per-edge table untouched. *)

val drop : t -> unit
(** Marks the most recent send as lost (it still counts into [sent]
    and [bytes], never into [delivered]). *)

val retransmit : t -> unit
(** Records one link-layer retransmission in the open round. *)

val duplicate : t -> unit
(** Records one suppressed duplicate delivery in the open round. *)

val reconfig :
  t -> replications:int -> migrations:int -> contractions:int -> unit
(** Records copy-set reconfiguration work — copies added, moved and
    dropped — into the open round, so migration storms appear in the
    series (and hence in {!Monitor} and [report]) rather than only in
    their congestion side-effects. All three must be [>= 0]. *)

val end_round : t -> live_nodes:int -> unit
(** Closes the open round with the number of live (non-crashed) nodes,
    cuts the per-edge counters down to the top-4 table, and folds the
    history if it now exceeds [capacity]. Folding a pair keeps the later
    point's [round] and [vtime] (the bucket's position is its end) and
    sums the counters, so series totals are conserved on both axes. *)

val points : t -> point list
(** The retained series in round order. Calling this mid-round returns
    only closed rounds. *)

val rounds_recorded : t -> int
(** Total rounds ever closed into this collector (unaffected by
    folding). *)

val emit : t -> prefix:string -> (Sink.event -> unit) -> unit
(** Streams the series as {!Sink.Series} events, one per (point,
    field): [<prefix>.sent], [.delivered], [.dropped], [.bytes],
    [.retransmits], [.dup_suppressed], [.replications]/[.migrations]/
    [.contractions] (reconfiguration counters, emitted only when
    non-zero so pre-serving traces are unchanged), [.live_nodes] (all
    with [edge = -1]), one [<prefix>.edge] per top-4 entry carrying
    its edge id, and [<prefix>.edge_rest] for the aggregate remainder.
    Every
    event carries the point's [round], [vtime] (as the [time] field) and
    span
    (emitted only when non-zero, like the edge entries). Events appear
    in round order, fields in the order above — a pure function of
    {!points}, so emission is as deterministic as the series itself. *)
