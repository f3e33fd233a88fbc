(** Mutable binary min-heaps over float-keyed elements, and an in-place
    int heapsort.

    The library's general priority queue. The mapping algorithm of the
    extended-nibble strategy keys free downward child edges by their
    integer slack, locating one in [O(log degree)] time, matching the
    runtime bound claimed in Theorem 4.3 of the paper; the packet
    simulator keys the ticks booked beyond the current one by virtual
    time (its per-tick merge of edge queues uses a fixed-size int heap of
    its own, and it sorts each tick's released hops with
    {!sort_prefix}; neither allocates). Equal keys pop in heap order, not
    insertion order; the mapping's downward phase depends on that order,
    so the sift comparisons stay strict. *)

type 'a t
(** A min-heap of values with float keys. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty heap. *)

val add : 'a t -> key:float -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. [O(log n)]. *)

val pop_min : 'a t -> (float * 'a) option
(** [pop_min h] removes and returns the minimum-key binding, or [None]
    when [h] is empty. [O(log n)]. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a len] sorts [a.(0 .. len - 1)] ascending in place and
    leaves [a.(len ..)] untouched: a max-heap heapsort on [int]
    comparisons, with no closure call and no allocation. [O(len log len)].
    The packet simulator sorts each tick's released hops with it, and
    [Hbn_tree.Flat.Diff.steiner] its nodes by preorder position. Needs
    [0 <= len <= Array.length a]. *)
