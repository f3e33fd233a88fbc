(** Online dynamic data management on trees — the companion strategy.

    Reconstructs the dynamic tree strategy discussed in Section 1.3 of the
    paper (presented in its reference [10], where a competitive ratio of 3
    is proven for trees). The implementation is a per-edge automaton
    scheme realizing the same per-edge guarantee; experiment E12 measures
    its per-edge competitive ratio against the exact per-edge offline
    optimum of {!Offline}: across thousands of random sequences the load
    never exceeds [3·OPT + 4] per edge, and the multiplicative ratio on
    edges with substantial optimum stays below 3.05 — the constant of
    [10], reached exactly by the read/write alternation adversary.

    Per object, each edge [e] of the tree tracks how the connected copy
    set relates to it — entirely on one side, or spanning it — plus a
    read credit and two write-migration counters:

    - a {e crossing read} (no copy on the reader's side) pays 1, earns
      read credit; at [threshold] credits the set {e replicates} across
      (one more unit of transfer load);
    - a {e spanning write} pays 1 (the update broadcast) and burns read
      credit; at zero the side away from the writer is dropped (free);
    - a {e crossing write} pays 1 and builds migration pressure; at
      [2·threshold] crossing writes the copies {e migrate} across the
      edge (one transfer) — a write served on the copies' own side
      resets the opposite pressure.

    Because every edge between the copy set and a requester observes the
    same crossing requests, the per-edge decisions assemble into a
    connected global copy set at all times (checked by [validate]). On
    the adversarial read/write alternation across an edge the scheme pays
    exactly 3 per optimal 1 — the tight ratio of [10]. Copies live on any
    node (the tree model, like the nibble strategy); the static
    extended-nibble strategy remains the right tool when frequencies are
    known and copies must sit on processors. *)

module Tree = Hbn_tree.Tree

type violation = {
  v_request : int;  (** index of the request whose service broke it *)
  v_reason : string;  (** which invariant, e.g. ["copy set disconnected"] *)
  v_set : int list;  (** the copy set as found at detection *)
}
(** A breached automaton invariant, caught by [validate]. Any violation
    is a bug in the scheme; the run reports it with its context instead
    of raising mid-run. *)

type outcome = {
  edge_loads : int array;  (** accumulated dynamic load per edge *)
  served : int;  (** requests processed *)
  replications : int;  (** replication transfers *)
  migrations : int;  (** migration transfers *)
  contractions : int;  (** spanning edges dropped back to one side *)
  max_copies : int;  (** peak size of the copy set *)
  final_set : int list;  (** the copy set after the last request *)
  violation : violation option;
      (** first invariant breach, if [validate] caught one — serving
          stopped at that request ([served] counts it), mirroring
          [Runtime.run]'s non-raising contract *)
}

val run :
  ?size:int ->
  ?threshold:int ->
  ?validate:bool ->
  Tree.t ->
  initial:int ->
  Request.t list ->
  outcome
(** [run t ~initial reqs] plays the sequence for one object whose single
    initial copy sits on [initial]. [size] (default 1) is the object's
    data size, the non-uniform cost model of the paper's reference [12]:
    every replication or migration transfer loads its edge by [size], and
    [threshold] defaults to [size] so the counters amortize the transfer
    (replicate after [size] crossing reads, migrate after [2·size]
    crossing writes), keeping the competitive ratio a constant
    independent of the size.
    [validate] re-checks after every request that the copy set encoded by
    the edge states is nonempty, connected, and spans every marked edge
    (slow; for tests). A breach does not raise: the run stops early and
    the outcome carries the {!violation}. *)
