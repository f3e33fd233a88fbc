(** Baseline placement strategies for the comparison experiments (E10/E11).

    None of these carries a worst-case guarantee in the bus model; they
    bracket the extended-nibble strategy from below (naive single-copy and
    random placements) and from above in replication degree (full
    replication), plus a congestion-driven local search as a strong
    heuristic competitor. All produce leaf-only placements with
    nearest-copy (strict) assignments. *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

val owner : Workload.t -> Placement.t
(** One copy per object on its most-requesting processor
    ({!Hbn_workload.Workload.owner}: its home node, ties to the lowest
    id) — the classical directory-style baseline. Objects without
    requests get no copy. *)

val gravity_leaf : Workload.t -> Placement.t
(** One copy per object on the processor closest to the object's center of
    gravity — single-copy placement with global topology awareness. *)

val random_leaf : prng:Hbn_prng.Prng.t -> Workload.t -> Placement.t
(** One copy per object on a uniformly random requesting processor. *)

val full_replication : Workload.t -> Placement.t
(** A copy on every processor: reads are free, writes broadcast over the
    whole tree ({!Placement.full_replication}). *)

val local_search :
  ?iterations:int ->
  prng:Hbn_prng.Prng.t ->
  Workload.t ->
  Placement.t
(** Hill-climbing on the congestion, starting from {!owner}: each step
    proposes adding, removing, or moving one copy of a random object on a
    random processor and keeps the proposal if the congestion does not
    increase. Exactly [iterations] proposals are made (default 300).
    Runs on {!hill_climb}. *)

val hill_climb :
  iterations:int ->
  prng:Hbn_prng.Prng.t ->
  Workload.t ->
  int list array ->
  Placement.t
(** The climb itself, from explicit per-object copy sets. Proposals are
    applied as deltas to one incremental [Hbn_loads.Loads] engine and
    rolled back when the congestion worsens — O(height) per proposal
    instead of a full re-evaluation; the tests hold it to a from-scratch
    oracle that re-evaluates the whole workload per proposal and must land
    on the same placement for the same seed. Duplicate nodes in the input
    lists are collapsed, and the input arrays are not mutated. *)

val polish :
  ?iterations:int ->
  prng:Hbn_prng.Prng.t ->
  Workload.t ->
  Placement.t ->
  Placement.t
(** The same hill-climbing started from an existing leaf-only placement
    (typically the extended-nibble output). Proposals are only accepted
    when the congestion does not increase, so the result keeps any
    guarantee the input carried — polishing the 7-approximation can only
    tighten it. Raises [Invalid_argument] on placements with bus
    copies. *)
