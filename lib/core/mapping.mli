(** Step 3 of the extended-nibble strategy: the mapping algorithm.

    Moves the remaining copies from buses down to processors. Every edge of
    the canonically rooted tree is treated as two directed edges. The basic
    load [L_b(ē)] of a directed edge counts the requests of the modified
    nibble placement whose serving path (copy → requesting processor)
    traverses [ē]; the acceptable load starts as [L_acc(ē) = 2·L_b(ē)];
    moving a copy [c] along [ē] adds [s(c) + κ_x(c)] to the mapping load
    [L_map(ē)], an increment bounded by [τ_max = max_c (s(c) + κ_x(c))].

    The {e upwards phase} processes levels bottom-up: each node moves
    copies towards its parent while [L_map + τ_max ≤ L_acc] on the upward
    edge, then the adjustment sets the upward edge's acceptable load to its
    mapping load and decreases the downward edge's acceptable load by the
    same slack. The {e downwards phase} processes levels top-down: every
    bus moves each of its copies along a {e free} child edge
    ([L_map + s(c) + κ_x(c) ≤ L_acc + τ_max]), which Lemma 4.1 shows always
    exists, using a heap over child edges to find it in [O(log degree)].

    Invariant 4.2 holds at every internal node throughout — in the
    corrected form
    [Σ_out (L_acc − L_map) ≥ Σ_in (L_acc − L_map) + Σ_{c ∈ M(v)} (s(c) + κ_x(c))].
    The paper prints the last term as [2 Σ s(c)]; that form holds initially
    but is not preserved when a copy moves {e into} [v] (the right side
    would grow by [s − κ ≥ 0]). The corrected term changes by exactly the
    movement's load on both sides, is implied at initialization because
    [s(c) ≥ κ_x(c)] after Step 2, and still gives Lemma 4.1 (free edges
    exist, since the sum dominates the weight of any single held copy) and
    Lemma 4.6. See DESIGN.md, section "Errata". {!check_invariant} tests
    the corrected form on a state; the [on_round] hook of {!run} hands
    it every round's state (tests and experiment E5 check it that way). *)

module Tree = Hbn_tree.Tree

type state = {
  tree : Tree.t;
  tau_max : int;
  lacc_up : int array;  (** acceptable load per edge, towards the root *)
  lacc_down : int array;
  lmap_up : int array;
  lmap_down : int array;
  node_copies : Copy.t list array;  (** [M(v)] *)
}

type stats = {
  tau_max : int;
  moves_up : int;
  moves_down : int;
  final : state;
}

type error =
  | No_free_edge of { node : int; copy : Copy.t }
      (** the downwards phase found no free child edge at [node] for
          [copy] — impossible per Lemma 4.1 unless the bookkeeping is
          corrupted (exercised by the failure-injection tests) *)
  | Copy_on_bus of Copy.t
      (** a movable copy still sits on a bus after both phases *)

val basic_loads : Tree.t -> Copy.t list -> int array * int array
(** [(up, down)] basic loads per edge induced by the given copies' request
    groups (paths run from the serving copy to the requesting leaf). Each
    path is recorded by directed endpoint differences (up: the server and
    the LCA; down: the leaf and the LCA) and one reverse-preorder subtree
    sum reads both directions: O(1) per group plus O(n), whatever the
    height of the tree. *)

val run :
  ?on_round:(state -> unit) ->
  Tree.t ->
  basic_up:int array ->
  basic_down:int array ->
  movable:Copy.t list ->
  (stats, error) result
(** Executes both phases, mutating the [node] field of each movable copy.
    On [Ok] all movable copies end on processors; an [Error] stops the
    run where it went wrong and leaves the copies where they were then.
    [basic_up]/[basic_down] must come from {!basic_loads} over {e all}
    copies (movable or not) so that Invariant 4.2 holds initially; they
    are read only to initialise the acceptable loads, so smaller basic
    loads are how failure-injection tests corrupt the bookkeeping.

    [on_round] is called with the live state before the first round and
    after every level of both phases (do not mutate the state); an
    exception it raises propagates out of [run]. Right after each call
    the same checkpoint emits a ["mapping.round"] trace event (attrs:
    [round], [phase] of ["init"|"up"|"down"], [level], [tau_max],
    [moves_up], [moves_down]) when {!Hbn_obs.Trace} is enabled. The event
    carries counters only; [on_round] is the one way to see the
    acceptable and mapping loads themselves, which the Invariant 4.2
    oracle ({!check_invariant} after every round) needs. *)

val check_invariant : state -> (unit, string) result
(** Invariant 4.2 at every internal node of the tree. *)
