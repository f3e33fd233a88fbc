(** Incremental load accounting for the hill climbs of the baselines and
    the serving tier; {!Raw} also carries the online layer's running
    loads.

    [Loads.t] is a mutable mirror of one workload's Section 1.1 load
    state: per-edge absolute loads, per-object copy sets and reference
    assignments. The delta operations ({!add_copy}, {!remove_copy},
    {!move_copy}) update only the affected leaf→server paths and Steiner
    edges — O(height) per leaf that changes server, plus a scan of the
    surviving copies per leaf a removal orphans — instead of re-deriving
    every object's loads from scratch, O(objects · leaves · height) per
    hill-climb proposal.

    Invariants maintained between operations (see DESIGN.md §8):

    - [loads.(e)] equals [Placement.edge_loads] of {!snapshot};
    - every requesting leaf's server is its nearest copy, ties to the
      lowest node id (exactly [Placement.nearest]'s rule);
    - an edge carries the object's write-broadcast load iff it lies on
      the Steiner tree of the copy set ([0 < below < ncopies] in the
      canonical rooting).

    A {!checkpoint}/{!rollback} pair makes proposals try-then-undo: every
    delta pushes its inverse onto a journal, and rolling back replays the
    journal tail in reverse. The workload must not be mutated while an
    engine built on it is alive. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

(** Plain edge-load accumulation with incrementally maintained bus loads
    — the bottom layer of the engine, also used standalone by the online
    dynamic strategy for its running request loads. *)
module Raw : sig
  type t

  val create : Tree.t -> t
  (** All-zero loads. *)

  val add : t -> int -> int -> unit
  (** [add t e amount] adds [amount] (possibly negative) to edge [e] and
      to the bus loads of its non-processor endpoints. O(1). *)

  val loads : t -> int array
  (** A fresh copy of the per-edge loads. *)
end

type t

type checkpoint

(** {1 Construction} *)

val of_copies : Workload.t -> int list array -> t
(** [of_copies w copies] builds the engine state for the given per-object
    copy sets with nearest-copy assignments — the incremental counterpart
    of [Placement.nearest w ~copies], and the same state a fold of
    {!add_copy} over each ascending copy set would leave. It is built in
    bulk: per object with copies, one subtree count over the canonical
    rooting gives the Steiner membership counts and write-broadcast
    loads, one [Hbn_tree.Flat.nearest_into] sweep gives every requesting
    leaf its server, and each leaf's path load goes into one
    {!Hbn_tree.Flat.Diff} array shared by all objects, read out once at
    the end — O(n) per object plus O(1) per requesting leaf. Duplicate nodes in a list are collapsed; an
    object with requests may start copyless, and then {!snapshot} raises
    until it receives a first copy via {!add_copy}. Raises
    [Invalid_argument] on an out-of-range node or when [copies] and the
    workload disagree on the object count. The undo journal starts
    empty. *)

(** {1 Delta operations}

    All raise [Invalid_argument] on out-of-range indices, on adding a
    copy a node already holds, on removing a node's missing copy, and on
    removing the last copy of an object that has requests. *)

val add_copy : t -> obj:int -> int -> unit
(** Place a copy on a node. Requesting leaves strictly closer to the new
    copy (or equally close with the new node's id lower) defect to it. *)

val remove_copy : t -> obj:int -> int -> unit
(** Drop a node's copy. Leaves it served are reassigned to their nearest
    remaining copy (ties to the lowest id) by a scan of the surviving
    copies. *)

val move_copy : t -> obj:int -> src:int -> dst:int -> unit
(** [add_copy dst] then [remove_copy src] — the hill climb's "move"
    proposal, safe for single-copy objects because the new copy lands
    before the old one leaves. *)

(** {1 Checkpoint / rollback} *)

val checkpoint : t -> checkpoint
(** Marks the current journal position. Checkpoints nest. *)

val rollback : t -> checkpoint -> unit
(** Undo every delta applied since the checkpoint, restoring loads,
    copy sets and assignments exactly. Raises [Invalid_argument] if the
    checkpoint is ahead of the journal (e.g. already rolled back). *)

(** {1 Inspection} *)

val workload : t -> Workload.t

val copies : t -> obj:int -> int list
(** Current copy set, ascending. O(1): the engine's own immutable list. *)

val has_copy : t -> obj:int -> int -> bool
(** O(1). *)

val num_copies : t -> obj:int -> int
(** O(1). *)

val server : t -> obj:int -> int -> int option
(** The copy currently serving a leaf's requests, if it has any. *)

val edge_loads : t -> int array
(** A fresh copy of the per-edge absolute loads. *)

val object_edge_loads : t -> obj:int -> int array
(** The per-edge load one object induces in the current state: its
    requesting leaves' traffic to their servers plus [κ_x] on every
    Steiner edge of its copy set — [Placement.edge_loads w [| p.(obj) |]]
    for [p] the {!snapshot}, also defined while the object is copyless
    (then all zero). One {!Hbn_tree.Flat.Diff} pass: O(n + copies log copies). *)

val congestion : t -> float
(** Congestion of the current state — bit-identical to
    [Placement.congestion] of {!snapshot}, in O(n) instead of a full
    re-evaluation: [Placement.max_relative] on the maintained edge and
    doubled bus loads (same scan order, first maximum wins), without
    allocating per site. *)

val snapshot : t -> Placement.t
(** Materialize the current state as a placement — structurally equal to
    [Placement.nearest w ~copies:(current copy sets)]. Raises
    [Invalid_argument] while an object with requests has no copies. *)
