(** Closed-form optimum for the Theorem 2.1 reduction gadget.

    Within the proof's canonical placement family — object [y] on
    processor [a], each item object [x_i] on [s] or [s̄] — the edge loads
    are (with [σ] the item weight placed on [s]):
    [L(e_a) = L(e_b) = 4k], [L(e_s) = 2k + 2σ], [L(e_s̄) = 6k − 2σ],
    so the family's optimal congestion is
    [min_{σ achievable} max(4k, 2k + 2σ, 6k − 2σ)], computable by the
    subset-sum DP. The proof of Theorem 2.1 shows no placement beats the
    family, so this equals the true optimum: it is [4k] iff some subset
    sums to [k]. Experiment E2 cross-checks the formula against the
    brute-force solver on small instances. *)

val family_optimum : Hbn_workload.Partition.instance -> int
(** The canonical-family optimum (= the true optimal congestion). Raises
    [Invalid_argument] on instances with odd sums. *)
