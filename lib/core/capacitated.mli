(** Capacity-constrained placements (memory-limited processors).

    The paper's companion work ([13] in its bibliography, SODA 2000)
    extends congestion-driven data management to systems where every
    node can store only a bounded number of objects. This module provides
    that extension for hierarchical bus networks as a post-processing
    pass: given the extended-nibble placement and per-processor
    capacities (a processor can hold at most one copy of each object, and
    at most [capacity v] copies in total), overfull processors evict
    their least-used copies, which either merge into the nearest existing
    copy of the same object or relocate to the nearest processor with a
    free slot.

    The factor-7 guarantee does not carry over (capacities can force
    congestion arbitrarily high — consider one writable object per
    processor and capacity 1 elsewhere); experiment E13 measures the
    degradation curve as capacity shrinks. *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Tree = Hbn_tree.Tree

type outcome = {
  placement : Placement.t;
  relocations : int;  (** copies moved to another processor *)
  merges : int;  (** copies folded into an existing copy of the object *)
}

val respects : Tree.t -> capacity:(int -> int) -> Placement.t -> bool
(** Does the placement fit the capacities? *)

val apply :
  Workload.t -> capacity:(int -> int) -> Placement.t -> (outcome, string) result
(** [apply w ~capacity p] rewrites the leaf-only placement [p] to respect
    [capacity]. [Error] names the first processor with a negative
    capacity, or the first evicted copy no processor can host. Raises
    [Invalid_argument] if [p] stores copies on buses ({!Strategy.run}'s
    placements never do). The result covers the workload exactly (same
    requests, possibly new servers). *)
