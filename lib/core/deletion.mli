(** Step 2 of the extended-nibble strategy: the deletion algorithm.

    Starting from the nibble placement of one object [x], the algorithm
    removes rarely used copies: processing the connected copy component
    [T(x)] level by level from the deepest level towards its root (the
    gravity center), a copy serving fewer than [κ_x] requests is deleted
    and its requests are reassigned to the copy on its parent; a deleted
    root reassigns to the nearest surviving copy. Afterwards, a copy
    serving more than [2κ_x] requests is split into co-located clones each
    serving between [κ_x] and [2κ_x] requests (Observation 3.2).

    The resulting "modified nibble placement" at most doubles the load of
    the nibble placement on every edge.

    Which copies survive depends only on request counts, so {!run}
    decides it by one pass of integers over a BFS of [T(x)] from the
    gravity center, children first: a copy's count starts at its leaves'
    weight ({!Nibble.iter_servers}), and a deleted copy adds it to its
    parent's. No order is sorted and no deleted copy is built; each
    survivor's groups are then consed once, in the order the
    step-by-step merges would leave them. Cost: O(copies + requesting
    leaves + nodes the leaf walks resolve). Working memory is the
    scratch's; [run] allocates the survivors, their groups (and a split
    copy's buckets) and one [|cs.nodes|]-array. *)

module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble

type outcome = {
  copies : Copy.t list;  (** surviving copies (clones share a node) *)
  deletions : int;
  splits : int;  (** number of extra clones created *)
  ids_used : int;  (** copy ids consumed: [|cs.nodes| + splits] *)
}

val run :
  ?scratch:Hbn_tree.Flat.Scratch.t ->
  Workload.t ->
  Nibble.copy_set ->
  outcome
(** [run w cs] executes the deletion algorithm for object [cs.obj]. The
    function is pure per object: copy ids are local from 0 — the
    survivor on the [i]-th node of [cs.nodes] keeps [i], and clones
    follow from [|cs.nodes|] in node order — and no shared state is
    touched, so the strategy driver can fan objects out over domains and
    renumber ids into one global sequence at merge time (the
    ["deletion.object"] trace event is likewise emitted by the driver's
    sequential merge, not here). Requires [cs.nodes <> []] and [κ_x > 0];
    the strategy driver handles the degenerate cases separately. [cs] is
    taken as {!Nibble.place} returns it: [cs.nodes] ascending and
    connected, holding [cs.gravity]. A copy serving [s > 2κ_x] requests
    splits into [s / κ_x] near-equal parts, each in [\[κ_x, 2κ_x\]];
    a group that straddles two parts gives its reads first.
    [scratch] (fresh by default) must belong to the calling domain; the
    driver hands each worker slot its own. *)
