(** Shared data objects and access frequencies.

    A workload pairs a hierarchical bus network with the read and write
    frequency functions [h_r, h_w : P × X → N] of the static data
    management problem. Only processors (leaves) issue requests. *)

type t

(** {1 Flat (structure-of-arrays) representation}

    The hot pipeline's view of the workload: all per-object weight
    vectors packed row-major into one shared [int array], per-object
    totals in parallel arrays, and the requesting-leaf sets as one CSR
    ([req_off]/[req_leaf]). Built on first access, cached until the next
    {!set_read}/{!set_write}, immutable once built — force it with
    {!flat} before fanning tasks out, then read it freely from any
    domain. Treat every array as read-only. *)

module Flat : sig
  type t = private {
    nodes : int;  (** row stride: the tree's node count *)
    objects : int;
    weights : int array;
        (** [objects × nodes] row-major; [h_r + h_w] per (object, node) *)
    total_reads : int array;  (** per object *)
    kappa : int array;  (** per object: [κ_x], the total writes *)
    req_off : int array;
        (** CSR offsets into [req_leaf], [objects + 1] entries *)
    req_leaf : int array;
        (** requesting leaves, ascending within each object's slice *)
  }

  val row_base : t -> obj:int -> int
  (** Index of [(obj, node 0)] in [weights]: [obj * nodes]. *)

  val weight : t -> obj:int -> int -> int

  val kappa : t -> obj:int -> int

  val total_weight : t -> obj:int -> int

  val num_requesting : t -> obj:int -> int

  val iter_requesting : t -> obj:int -> (int -> unit) -> unit
  (** Requesting leaves in ascending order, no allocation. *)
end

val flat : t -> Flat.t
(** The (cached) flat representation. *)

val make : Hbn_tree.Tree.t -> reads:int array array -> writes:int array array -> t
(** [make tree ~reads ~writes] with [reads.(x).(v)] the read frequency of
    node [v] for object [x] (same shape for [writes]). Raises
    [Invalid_argument] if shapes disagree with the tree, any rate is
    negative, or a non-leaf node has a nonzero rate. *)

val empty : Hbn_tree.Tree.t -> objects:int -> t
(** All-zero frequencies for [objects] shared objects. *)

val tree : t -> Hbn_tree.Tree.t

val num_objects : t -> int

val reads : t -> obj:int -> int -> int
(** [reads t ~obj v] is [h_r(v, obj)]. *)

val writes : t -> obj:int -> int -> int

val weight : t -> obj:int -> int -> int
(** [weight t ~obj v] is [h(v) = h_r(v, obj) + h_w(v, obj)]. *)

val set_read : t -> obj:int -> int -> int -> unit
(** [set_read t ~obj v rate] updates a frequency in place. Raises
    [Invalid_argument] on non-leaves or negative rates. *)

val set_write : t -> obj:int -> int -> int -> unit

val write_contention : t -> obj:int -> int
(** [write_contention t ~obj] is [κ_x = Σ_P h_w(P, x)]. *)

val total_weight : t -> obj:int -> int
(** [Σ_P (h_r + h_w)(P, x)]. *)

val total_requests : t -> int
(** Total over all objects and processors. *)

val read_vector : t -> obj:int -> int array
(** Per-node read frequencies (a fresh copy). *)

val write_vector : t -> obj:int -> int array

val weight_vector : t -> obj:int -> int array
(** Per-node [h_r + h_w] (a fresh copy of the object's {!Flat} row). *)

val requesting_leaves : t -> obj:int -> int list
(** Leaves with nonzero weight for the object, ascending. *)

val owner : t -> obj:int -> int option
(** The object's owner (home node): the processor with the largest
    {!weight}, ties to the lowest id; [None] when nothing requests the
    object. The single-copy baseline, the hill climb's start and the
    serving tier's first copy all place here. *)

val pp : Format.formatter -> t -> unit
