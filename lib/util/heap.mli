(** Mutable binary min-heaps over integer-keyed elements.

    Used by the mapping algorithm of the extended-nibble strategy to locate a
    free downward child edge in [O(log degree)] time, matching the runtime
    bound claimed in Theorem 4.3 of the paper. Equal keys pop in heap
    order, not insertion order; the mapping's downward phase depends on
    that order, so the sift comparisons stay strict. *)

type 'a t
(** A min-heap of values with integer keys. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty heap. *)

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. [O(log n)]. *)

val pop_min : 'a t -> (int * 'a) option
(** [pop_min h] removes and returns the minimum-key binding, or [None]
    when [h] is empty. [O(log n)]. *)
