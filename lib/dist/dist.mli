(** Distributed execution of the strategy, emulated with explicit rounds.

    The paper claims the extended-nibble strategy can be executed by the
    tree network itself in time
    [O(|X| · |P ∪ B| · log(degree(T)) + height(T))], with the per-object
    computations pipelined along the tree. This module emulates that
    execution synchronously — messages travel one edge per round — and
    counts rounds, messages, and the busiest node's total work, so that
    experiment E9 can check the claimed shape and the tests can check that
    the distributed computation reproduces the sequential placement
    exactly.

    The nibble step is emulated at full message granularity: a pipelined
    convergecast aggregates per-object subtree weights (object [x]'s wave
    starts at round [x], so all waves finish in [height + |X|] rounds), a
    pipelined broadcast distributes totals and the elected gravity
    centers, and every node then decides locally which copies it holds.
    Steps 2 and 3 are level-synchronized like the sequential code; their
    round count is bounded by the component heights and [2·height], and
    per-node work is accounted as [copies moved × ⌈log₂ degree⌉]. *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type stats = {
  rounds : int;  (** synchronous communication rounds *)
  messages : int;  (** total point-to-point messages *)
  max_node_work : int;  (** busiest node's accumulated work units *)
}

val nibble_cost : Hbn_tree.Tree.t -> int -> stats
(** [nibble_cost tree objects] is the cost of the distributed nibble
    for [objects] objects: two pipelined convergecasts and two
    broadcasts. It depends on the tree and the object count only; each
    node decides locally which copies it holds, and those are
    {!Hbn_nibble.Nibble.place_all}'s copy sets. *)

val strategy_rounds : Workload.t -> Placement.t * stats
(** Emulates the full pipeline (nibble + deletion + mapping) and returns
    the final placement — identical to the sequential
    {!Hbn_core.Strategy.run} — together with the distributed cost model:
    nibble rounds, one wave per object for deletion, and [2·height]
    mapping rounds, with heap-based [⌈log₂ degree⌉] work per copy
    movement. *)

(** {1 Execution under injected faults} *)

type fault_report =
  | Recovered of {
      placement : Placement.t;
          (** equals {!Hbn_core.Strategy.run}'s placement *)
      emulated : stats;  (** fault-free cost model of the full pipeline *)
      nibble : Dist_nibble.robust_stats;  (** the actual hardened run *)
      log : Faults.event list;
    }
  | Degraded of {
      reason : [ `Round_limit | `Undecided | `Diverged ];
      partial : int list array;  (** per-object copy sets decided so far *)
      nibble : Dist_nibble.robust_stats;
      log : Faults.event list;
    }

val run_with_faults :
  ?max_rounds:int ->
  ?faults:Faults.plan ->
  ?telemetry:Hbn_obs.Telemetry.t ->
  ?link:Hbn_event.Link.config ->
  Workload.t ->
  fault_report
(** Runs the hardened distributed nibble ({!Dist_nibble.run_robust})
    under the plan, then the sequential {!Hbn_core.Strategy.run} once,
    and verifies the recovered copy sets against that run's Step 1 copy
    sets. On agreement the rest of the strategy proceeds as in the
    fault-free emulation and the report is [Recovered] with that run's
    placement and its cost model; any other ending —
    round budget exhausted, permanently crashed node, or (would be a
    bug) divergence — is a structured [Degraded]. Never raises on
    faults. [telemetry] and [link] are passed through to the hardened
    run ({!Dist_nibble.run_robust}) so the recovery's round-by-round
    message and retransmission pressure lands in the collector, where a
    {!Hbn_obs.Monitor} can turn it into alerts, and the recovery can be
    measured on asymmetric per-level links. *)
