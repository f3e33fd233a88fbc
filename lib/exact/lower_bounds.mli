(** Lower bounds on the optimal congestion of a hierarchical bus network.

    Used to certify approximation ratios on instances too large for
    {!Brute_force}. All bounds are valid for the bus model (copies on
    processors only). *)

module Workload = Hbn_workload.Workload

val combined : Workload.t -> float
(** The bound the experiments report as "LB": the larger of two bounds.
    One is the congestion of the nibble placement: by Theorem 3.1 the
    nibble placement minimizes every edge load (and hence every bus
    load) simultaneously in the more permissive tree model, so its
    congestion lower-bounds the bus-model optimum. The other is the case
    analysis from the proof of Theorem 4.3, made per-object. Any placement of object [x] either uses at least two
    copies — then every write updates every copy, so each copy's unit
    processor switch carries at least [κ_x] — or one copy on some
    processor [l], whose switch then carries all requests of the other
    processors, [h_x − h_x(l) ≥ h_x − max_P h_x(P)]. Hence
    [C_opt ≥ max_x min(κ_x, h_x − max_P h_x(P))]. *)
