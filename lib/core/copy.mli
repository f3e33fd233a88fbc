(** Copies of shared data objects.

    Steps 2 and 3 of the extended-nibble strategy work on individual
    copies: the deletion algorithm decides which copies survive and
    which requests each serves, and the mapping algorithm moves copies
    between nodes. A copy records the object it belongs to, the object's
    write contention [κ_x] (cached because [s(c) + κ_x] is the unit in
    which mapping loads grow), its current node, and the request groups
    it serves. Step 2 builds each copy once, with its final groups; after
    that only [node] changes (Step 3's moves). *)

module Nibble = Hbn_nibble.Nibble

type t = {
  id : int;  (** unique per strategy run, for diagnostics *)
  obj : int;
  kappa : int;  (** [κ_x] of the object this is a copy of *)
  origin : int;  (** the node the copy was made on, before any mapping move *)
  mutable node : int;  (** current location *)
  groups : Nibble.group list;  (** requests served by this copy *)
  served : int;  (** [s(c)]: cached sum of group weights *)
}

val make : id:int -> obj:int -> kappa:int -> node:int -> Nibble.group list -> t
(** Builds a copy at [node] (also its [origin]); [served] is computed
    from the groups. *)

val weight : t -> int
(** [s(c) + κ_x]: the amount by which moving this copy along an edge
    increases the edge's mapping load. *)
