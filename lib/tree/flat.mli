(** Structure-of-arrays hot path over a tree's canonical rooting.

    [Flat.t] packages the canonical {!Tree.rooted} arrays with the cached
    Euler-tour index ({!Tree.flat_index}) so the pipeline's inner loops —
    leaf→server path walks, Steiner-tree scans, subtree aggregations — run
    over plain [int array]s with O(1) LCA and allocate nothing. Every
    path, LCA and Steiner computation of the library goes through it, in
    one of two forms: the iterators visit edges one by one in a fixed
    order (see each kernel; simulated schedules and per-component
    attribution depend on it), while {!Diff} sums amounts over many paths
    and Steiner trees at once, with no order to depend on. Loads built
    either way are gated to be bit-identical.

    Mutable state lives exclusively in {!Scratch.t} buffers. A scratch is
    single-owner: each domain (or each worker slot of an
    [Hbn_exec.Exec] pool) must use its own. [Flat.t] itself is immutable
    and freely shared across domains. *)

type t = private {
  tree : Tree.t;
  r : Tree.rooted;  (** the canonical rooting — read-only *)
  ix : Tree.flat_index;
  n : int;  (** number of nodes *)
  m : int;  (** number of edges, [n - 1] *)
}

val of_tree : Tree.t -> t
(** Cheap after the first call per tree: the Euler index is cached inside
    [Tree.t]. Call it once before fanning tasks out so the benign
    construction race never materializes. *)

(** {1 Scratch buffers}

    Preallocated working memory for the non-allocating kernels. The stamp
    discipline avoids clearing: each logical operation bumps [stamp] and
    treats a slot as set iff its stamp array holds the current value, so
    reuse costs nothing and a fresh scratch behaves identically to a
    reused one. *)

module Scratch : sig
  type flat := t

  type t = {
    mutable stamp : int;  (** current generation of the stamp arrays *)
    nstamp : int array;  (** per-node visit stamps, [n] slots *)
    estamp : int array;  (** per-edge visit stamps, [max 1 m] slots *)
    acc : int array;  (** per-node accumulators (subtree sums), [n] slots *)
    stack : int array;  (** edge/int stack, [max 1 m] slots *)
    mutable sp : int;  (** stack pointer *)
    queue : int array;  (** BFS ring, [n] slots *)
    slot : int array;
        (** sparse-set index, [n] slots: [slot.(v)] is [v]'s position in a
            caller's dense array of nodes, trusted only where that array
            holds [v] back, so it is never cleared *)
    cells : int array;
        (** [2n] slots of per-slot working memory for a caller's dense
            array of nodes: room for two ints per node, or one per node
            plus one per leaf *)
  }

  val create : flat -> t
  (** Fresh buffers sized for the given tree. One per owning domain. *)

  val index : t -> int array -> unit
  (** [index s nodes] points [s.slot] at each node's position in the
      duplicate-free array [nodes]: O(length), no clearing. *)

  val find : t -> int array -> int -> int
  (** [find s nodes v] is [v]'s position in [nodes] after {!index} on the
      same array, or [-1] when [nodes] does not hold [v]. O(1). *)
end

(** {1 O(1) queries} *)

val lca : t -> int -> int -> int
(** Lowest common ancestor on the canonical rooting. [c] is an
    ancestor-or-self of [v] iff [lca fl c v = c]. *)

val distance : t -> int -> int -> int
(** Edge count of the [u]–[v] path: [depth u + depth v - 2 depth (lca u v)]. *)

val next_hop : t -> int -> int -> int
(** [next_hop fl v g] ([v <> g]) is [v]'s neighbour towards [g], i.e. its
    parent in the tree rooted at [g]: the canonical parent, or, when [g]
    lies below [v], the child whose preorder block holds [g] (binary
    search, O(log degree), no allocation). With {!distance} it gives the
    rooting at [g] without building it. *)

(** {1 Path iteration}

    All iterators visit edge ids and allocate nothing (beyond the closure
    the caller passes in). *)

val iter_path_to_root : t -> int -> (int -> unit) -> unit
(** Edges from [v] up to the canonical root, bottom-up. *)

val iter_path : t -> Scratch.t -> int -> int -> (int -> unit) -> unit
(** [iter_path fl scratch u v f] visits the [u]–[v] path edges in
    traversal order: [u] up to the LCA, then LCA down to [v] (the descent
    is replayed from [scratch.stack]). Empty when [u = v]. *)

val fold_path : t -> Scratch.t -> int -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Folding flavor of {!iter_path}, same order. *)

val iter_path_unordered : t -> int -> int -> (int -> unit) -> unit
(** Scratch-free variant visiting [u]→LCA then [v]→LCA, both bottom-up.
    Each path edge is visited exactly once; only the order differs from
    {!iter_path}. For callers that only sum over the path, such as the
    load engine moving a leaf's request load between servers: integer
    addition commutes, so the order is free and no scratch is needed. *)

(** {1 Steiner trees} *)

val iter_steiner : t -> Scratch.t -> nodes:((int -> unit) -> unit) -> (int -> unit) -> unit
(** [iter_steiner fl scratch ~nodes f] visits the edges of the minimal
    subtree spanning the nodes produced by the [nodes] iterator
    (duplicates welcome; fewer than two distinct nodes yield no edges).
    Edges are emitted in ascending preorder position of their lower
    (child-side) endpoint. O(n) time,
    zero allocation: membership marks use [scratch.nstamp], counts use
    [scratch.acc]. *)

(** {1 Nearest copies} *)

val nearest_into : t -> Scratch.t -> copies:((int -> unit) -> unit) -> unit
(** [nearest_into fl scratch ~copies] sets [scratch.acc.(v)] to
    [distance v c * n + c] for every node [v], where [c] is [v]'s nearest
    node among those the [copies] iterator produces (duplicates welcome),
    ties to the lowest id: so [acc.(v) mod n] is the copy and
    [acc.(v) / n] its distance. With no copies every slot is [max_int].
    Two passes over the preorder (children into parents, then parents
    into children): O(n) time, zero allocation, valid until the
    scratch's next use of [acc]. *)

(** {1 Subtree aggregation} *)

val subtree_sums_into : t -> Scratch.t -> src:int array -> src_off:int -> unit
(** Sums [src.(src_off + v)] over canonical subtrees into [scratch.acc]
    (valid until the scratch's next aggregation). Same sums as
    [Tree.subtree_sums] on the canonical rooting. *)

(** {1 Path sums by endpoint differences}

    Summing amounts over many paths does not need the paths walked. A
    difference array [d] over nodes records an amount on the u–v path at
    three nodes: plus at [u] and at [v], minus twice at their LCA. The
    subtree sum at [v] then counts exactly the recorded paths that cross
    [v]'s parent edge, so one bottom-up pass ({!Diff.edges_into}) yields
    every edge's total: O(1) per path plus O(n) once, instead of O(path
    length) per path.

    A Steiner tree is a sum of paths too. Sort its nodes by preorder
    position and close the tour: the paths between cyclically consecutive
    nodes cross every Steiner edge exactly twice (once into the subtree
    below it, once back out) and no other edge. So the array holds each
    amount {e twice}: {!Diff.path} records [2a], {!Diff.steiner} records
    [a] per tour pair, and {!Diff.edges_into} halves the sums, exactly.

    [d] has [n] slots and starts all zero; the caller owns it. *)

module Diff : sig
  type flat := t

  val path : flat -> int array -> int -> int -> int -> unit
  (** [path fl d u v a] records [a] on every edge of the u–v path. O(1);
      nothing when [u = v]. *)

  val steiner : flat -> int array -> nodes:int array -> len:int -> int -> unit
  (** [steiner fl d ~nodes ~len a] records [a] on every edge of the
      minimal subtree spanning [nodes.(0 .. len-1)] (duplicates welcome;
      fewer than two distinct nodes record nothing). Sorts that prefix of
      [nodes] in place by preorder position with
      {!Hbn_util.Heap.sort_prefix}: O(len log len), no allocation. *)

  val edges_into : flat -> int array -> dst:int array -> unit
  (** [edges_into fl d ~dst] writes every edge's recorded total to
      [dst.(e)] ([dst] has [max 1 m] slots; every edge slot is written).
      Turns [d] into its subtree sums on the way, so clear it before
      recording again. O(n), no allocation. *)
end
