(** The extended-nibble strategy (the paper's main contribution).

    Pipeline, per Section 3:
    + {b Step 1} — the nibble strategy computes a per-edge-optimal placement
      that may use buses (module {!Hbn_nibble.Nibble}).
    + {b Step 2} — the deletion algorithm removes copies serving fewer than
      [κ_x] requests and splits overloaded ones (module {!Deletion}).
    + {b Step 3} — the mapping algorithm moves the remaining bus copies to
      processors (module {!Mapping}).

    The resulting leaf-only placement has congestion at most [7 · C_opt]
    (Theorem 4.3), where [C_opt] is the optimal congestion of the
    hierarchical bus network.

    Two degenerate object classes bypass Steps 2–3 (see DESIGN.md):
    objects without requests get no copies, and write-free objects
    ([κ_x = 0]) get one copy on every requesting processor, which serves
    locally at zero cost. Objects whose placement contains no bus copy
    after Step 2 are left unchanged, following the paper's remark that the
    strategy "does not change their placement"; with
    [move_leaf_copies = true] the upwards phase additionally moves copies
    that already sit on processors, matching the pseudocode of Figure 5
    verbatim (an ablation; both variants satisfy all certificates). *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble

(** What a run builds: the final placement and the per-object and per-copy
    state it came from. The Step 1 and Step 2 placements are not built;
    {!nibble_placement} and {!modified_placement} derive them on demand
    from [nibble_sets] and [copies]. *)
type result = {
  placement : Placement.t;  (** the final, leaf-only placement *)
  nibble_sets : Nibble.copy_set array;
      (** the Step 1 copy sets, one per object in object order *)
  tau_max : int;  (** 0 when no object needed mapping *)
  mapping : Mapping.stats option;
  deletions : int;
  splits : int;
  mapped_objects : int list;  (** objects whose copies went through Step 3 *)
  copies : Copy.t list;
      (** every Step 2 copy, in object order ([node] reflects Step 3
          movement, [origin] is where Step 2 left the copy; the served
          counts and write contentions are those fixed by Step 2) *)
}

val run :
  ?move_leaf_copies:bool ->
  ?on_mapping_round:(Mapping.state -> unit) ->
  ?exec:Hbn_exec.Exec.t ->
  Workload.t ->
  result
(** [run w] executes the full strategy. [on_mapping_round] is forwarded
    to {!Mapping.run} as its [on_round] hook (tests check Invariant 4.2
    through it). [move_leaf_copies] defaults to [false].

    Per object, Step 1 is O(n) (the weight sums and the rule) and Step 2
    works over the copy set and the requests only; neither allocates
    anything proportional to the tree. No nearest-copy assignment runs: Step 2 serves each
    request from the first copy on its path to the gravity center.

    [exec] (default sequential) fans the per-object stages — Step 1,
    Step 2, and placement construction — out over domains via
    {!Hbn_exec.Exec.map}; Step 3 (mapping) shares its load accumulators
    across objects and stays a sequential global phase. Results are
    bit-identical at any job count: per-object work is pure, the merge
    runs in object order, and copy ids are renumbered into the same
    global sequence the old shared-counter allocation produced.

    When {!Hbn_obs.Trace} is enabled, the pipeline emits one span per
    step — [strategy.nibble] (attrs [objects], [copies]),
    [strategy.deletion] (attrs [deletions], [splits]) and
    [strategy.mapping] (attrs [tau_max], [mapped_objects], [moves_up],
    [moves_down]) — nested in a [strategy.run] root span, plus the
    [strategy.deletions] / [strategy.splits] counters. Tracing only
    observes: the computed result is identical with tracing on, off, or
    absent. *)

val nibble_placement :
  ?exec:Hbn_exec.Exec.t -> Workload.t -> result -> Placement.t
(** [nibble_placement w res] is the Step 1 placement — [res.nibble_sets]
    with nearest-copy assignment ({!Placement.nearest}), the per-edge lower
    bound [L_nib] of the analysis. [w] must be the workload [res] was
    computed from, unchanged since. One O(n) sweep per requested object;
    meant for certificates, experiments and tests, not the product path. *)

val modified_placement :
  ?exec:Hbn_exec.Exec.t -> Workload.t -> result -> Placement.t
(** [modified_placement w res] is the Step 2 ("modified nibble")
    placement: every copy of [res.copies] at its [origin], serving its
    groups, plus the bypassed objects as {!run} places them. Same
    conditions on [w] as {!nibble_placement}. O(copies + requests). *)

(** {1 Ablations}

    DESIGN.md calls out two design decisions the analysis depends on; the
    variants here remove them so experiment E14 can measure what breaks.
    Both start from the Step 1 copy sets with Step 2 skipped: one copy per
    nibble node, serving the requests {!Hbn_nibble.Nibble.served_groups}
    routes to it, ids in sequence in object order. They then build their
    placement with {!run}'s own Step 3 and placement code. *)

val naive_nearest_leaf : Workload.t -> Placement.t
(** Replaces the Step 3 load balancing by "move every bus copy to its
    nearest processor": each copy goes to the first processor a BFS from
    its node reaches (neighbours in {!Hbn_tree.Tree.neighbors} order),
    requests following their copy. No object bypasses this, write-free
    ones included. Leaf-only and valid, but a popular bus's processors
    absorb every forwarded request, so the Lemma 4.5 per-edge bound and
    the approximation guarantee are lost. *)

type skip_deletion_outcome =
  | Mapped of Placement.t  (** the mapping happened to succeed *)
  | Stuck of { node : int }  (** no free child edge (Lemma 4.1 violated) *)

val skip_deletion : Workload.t -> skip_deletion_outcome
(** Step 1 then Step 3 with Step 2 removed (degenerate objects bypass as
    in {!run}). Copies may then serve fewer than [κ_x] requests, which
    invalidates the initialization of Invariant 4.2 ([Σ(s+κ) ≤ 2Σs] needs
    [s ≥ κ]) and with it Lemma 4.1's free-edge guarantee: the downwards
    phase can fail, and E14 reports how often it does. *)
