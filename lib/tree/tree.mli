(** Hierarchical bus networks modeled as weighted trees.

    Following the paper, a hierarchical bus network is a tree
    [T = (P ∪ B, E, b)]: processors [P] are the leaves, buses [B] are the
    inner nodes, edges are switches. [b] assigns bandwidths to edges and to
    buses; switches connecting processors to buses are the slowest part of
    the system and have bandwidth 1, all other bandwidths are at least 1.

    Nodes are dense integers [0 .. n-1]; edges are dense integers
    [0 .. n-2]. The tree stores one rooting, the canonical one chosen at
    construction. Algorithms that root the tree elsewhere (the nibble
    strategy roots at a per-object center of gravity) read that rooting
    through {!Hbn_tree.Flat.next_hop} and {!Hbn_tree.Flat.distance}
    instead of building a second one. *)

type kind = Processor | Bus

type rooted = {
  root : int;
  parent : int array;  (** [parent.(root) = -1] *)
  parent_edge : int array;  (** edge id towards the parent; [-1] at root *)
  children : int array array;
  depth : int array;
  preorder : int array;
      (** permutation of nodes such that parents precede children *)
}

type t

(** {1 Construction} *)

val make :
  kinds:kind array ->
  edges:(int * int * int) list ->
  bus_bandwidth:(int -> int) ->
  ?root:int ->
  unit ->
  t
(** [make ~kinds ~edges ~bus_bandwidth ()] builds a network with node [i] of
    kind [kinds.(i)] and undirected edges [(u, v, bandwidth)].
    [bus_bandwidth] gives the bandwidth of each bus node. [root] defaults to
    the lowest-numbered bus (or node 0 if there is no bus).

    Raises [Invalid_argument] if the edges do not form a tree, if any leaf
    is not a [Processor], if any inner node is not a [Bus], or if any
    bandwidth is below 1. A single-node network must be one processor. *)

(** {1 Basic accessors} *)

val n : t -> int
(** Number of nodes, [|P ∪ B|]. *)

val num_edges : t -> int

val kind : t -> int -> kind

val is_leaf : t -> int -> bool
(** [is_leaf t v] is [kind t v = Processor]. *)

val leaves : t -> int list
(** All processor nodes, ascending. Cached at construction; O(1). *)

val buses : t -> int list
(** All bus nodes, ascending. Cached at construction; O(1). *)

val leaves_array : t -> int array
(** The processors as an array, ascending — the cached backing store of
    {!leaves}, for hot loops that index or sample. Do not mutate. *)

val buses_array : t -> int array
(** The buses as an array, ascending. Do not mutate. *)

val num_leaves : t -> int
(** O(1). *)

val edge_endpoints : t -> int -> int * int

val edge_bandwidth : t -> int -> int

val bus_bandwidth : t -> int -> int
(** Defined for bus nodes; raises [Invalid_argument] on processors. *)

val neighbors : t -> int -> (int * int) array
(** [neighbors t v] are [(neighbor, edge_id)] pairs. Do not mutate. *)

val degree : t -> int -> int

val max_degree : t -> int
(** [degree(T)]: maximum degree over all nodes. *)

val height : t -> int
(** [height(T)]: maximum depth of the canonical rooting. *)

(** {1 Rooting} *)

val rooting : t -> rooted
(** The canonical rooting chosen at construction. *)

(** {1 Euler-tour index}

    The backing store of {!Hbn_tree.Flat}, which computes every path,
    LCA and Steiner tree of the pipeline over it. *)

(** Structure-of-arrays index over the {e canonical} rooting: preorder
    positions, the Euler tour, and a sparse table of depth minima giving
    O(1) LCA queries. Built once per tree on first use and cached (a
    benign construction race between domains duplicates work at worst;
    force it with {!flat_index} before fanning tasks out). Treat every
    array as read-only. *)
type flat_index = {
  pos : int array;  (** preorder position of each node *)
  first : int array;  (** first occurrence of each node on the Euler tour *)
  enode : int array;  (** the Euler tour itself, [2n-1] entries *)
  edep : int array;  (** depth of [enode.(i)] *)
  elog2 : int array;  (** floor log2 table up to [elen] *)
  sparse : int array;  (** argmin-by-depth windows, [levels * elen] flat *)
  elen : int;  (** tour length, [2n-1] *)
}

val flat_index : t -> flat_index
(** The cached index (constructed on first call). *)

val lca_flat : flat_index -> int -> int -> int
(** O(1) lowest common ancestor on the canonical rooting. *)

(** {1 Aggregation helpers} *)

val subtree_sums : rooted -> int array -> int array
(** [subtree_sums r w] gives, for each node [v], the sum of [w] over the
    subtree of [v] in rooting [r] (linear time, no recursion). *)

val nodes_by_level_bottom_up : rooted -> int list array
(** [nodes_by_level_bottom_up r] groups nodes by level where, following the
    paper's convention, the root is on level [height] and children of level
    [i+1] nodes are on level [i]; index 0 = deepest level. *)

(** {1 Validation and output} *)

val validate_paper_assumptions : t -> (unit, string) result
(** Checks the additional modeling assumption from Section 1.1 that every
    processor-to-bus switch has bandwidth exactly 1. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line description. *)

val to_dot : t -> string
(** Graphviz rendering (buses as boxes, processors as circles, edges
    labeled with bandwidths). *)
