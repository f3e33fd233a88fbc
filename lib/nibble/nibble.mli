(** Step 1 of the extended-nibble strategy: the nibble placement.

    The nibble strategy (Maggs, Meyer auf der Heide, Vöcking, Westermann,
    FOCS 1997) computes, per object [x], a placement of copies on the nodes
    of a tree — inner nodes included — that minimizes the load on {e very}
    edge simultaneously (Theorem 3.1). With the weight
    [h(v) = h_r(v,x) + h_w(v,x)] and the write contention
    [κ_x = Σ_v h_w(v,x)], the rule is: root the tree at a center of gravity
    [g(T)] of the weights; node [v] receives a copy iff [v = g(T)] or the
    weight of the subtree of [v] exceeds [κ_x]. The copies form a connected
    subtree [T(x)] containing [g(T)]; each processor's reference copy is
    its nearest copy. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

(** One object's nibble copies. The rule's rooting at [gravity] is not
    stored: {!place} and {!served_groups} read it off the canonical one. *)
type copy_set = {
  obj : int;
  nodes : int list;  (** nodes of [T(x)], ascending; empty for unused objects *)
  gravity : int;  (** the chosen center of gravity [g(T)] *)
}

val gravity_center : Tree.t -> weights:int array -> int
(** [gravity_center t ~weights] is the smallest-index node whose removal
    splits the tree into components each of weight at most half the total
    (such a node always exists; for total weight 0 every node qualifies). *)

val place : ?scratch:Hbn_tree.Flat.Scratch.t -> Workload.t -> obj:int -> copy_set
(** The nibble copy set for one object. [nodes = []] iff the object has no
    requests. [scratch] (fresh by default) lets hot loops reuse working
    memory; it must belong to the calling domain and is left dirty. *)

val place_all : Workload.t -> copy_set array
(** {!place} for every object, in object order, through one scratch. *)

val placement : Workload.t -> Placement.t
(** Nibble placement over all objects with nearest-copy reference
    assignment — the optimal tree-model placement that Step 2 and Step 3
    start from, and the per-edge lower bound [L_nib] of the analysis. *)

val edge_loads : Workload.t -> int array
(** [L_nib(e)] for every edge: the loads of {!placement}. *)

(** {1 Request service accounting}

    Step 2 needs to know, per copy, which requests it serves. A request
    group is all of one processor's reads and writes for the object; with
    nearest-copy assignment the group is served by the first copy on the
    processor's path towards the gravity center. *)

type group = { leaf : int; reads : int; writes : int }

val iter_servers :
  Hbn_tree.Flat.Scratch.t -> Workload.t -> copy_set -> int array ->
  (int -> int -> unit) -> unit
(** [iter_servers scratch w cs nodes f] calls [f leaf i] for every
    requesting leaf of [cs.obj], ascending, where [nodes.(i)] is the
    first copy on the leaf's path to the gravity center. [nodes] holds
    [cs.nodes] (any order, indexed in [scratch] by
    {!Hbn_tree.Flat.Scratch.index}); with none, [f] is never called.
    Walks go up canonical parents and resolve each non-copy node once:
    O(copies + requesting leaves + nodes walked), no allocation. Writes
    [scratch.nstamp] and [scratch.acc] at non-copy nodes only. *)

val served_groups :
  ?scratch:Hbn_tree.Flat.Scratch.t -> Workload.t -> copy_set -> group list array
(** [served_groups w cs] lists, for the [i]-th node of [cs.nodes], the
    request groups its copy serves: an array of [List.length cs.nodes]
    entries in [cs.nodes] order, each list in descending leaf order.
    Every requesting leaf appears in exactly one group. The servers come
    from {!iter_servers}; nothing proportional to the tree is allocated.
    [scratch] as in {!place}. *)

val group_weight : group -> int
(** [reads + writes]. *)

(** {1 Structure checks (used by tests and the E3 experiment)} *)

val is_connected : Tree.t -> int list -> bool
(** Whether the node set induces a connected subgraph of the tree. *)
