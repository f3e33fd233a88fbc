(** Exact per-edge offline optimum for dynamic request sequences.

    On a tree, each edge [e] splits the network in two sides; any
    placement history induces, per edge, a sequence of states in
    {child side only, parent side only, both sides}. The load a request
    or a reconfiguration puts on [e] depends only on that state sequence:

    - a read from side [s] loads [e] iff no copy is on [s];
    - a write loads [e] iff the opposite side holds a copy (update or
      request crossing);
    - replicating or migrating across [e] loads it once; dropping copies
      is free.

    Minimizing over state sequences per edge (a 3-state dynamic program)
    yields, for every edge, a load no strategy — online or offline — can
    beat. Experiment E12 and the tests divide the online strategy's edge
    loads by this optimum to measure the competitive ratio (the paper's
    reference [10] proves 3 for trees). *)

module Tree = Hbn_tree.Tree

val per_edge_optimum :
  ?size:int -> Tree.t -> initial:int -> Request.t list -> int array
(** [per_edge_optimum t ~initial reqs] is the minimum possible load of
    every edge over all copy-placement histories starting from a single
    copy on [initial]. [size] (default 1) is the per-edge transfer cost
    of replications and migrations (the object's data size). *)
