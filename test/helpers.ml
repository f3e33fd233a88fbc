(* Shared utilities for the test suite: deterministic random instance
   generation (seed-driven so qcheck shrinking stays meaningful) and
   alcotest/qcheck glue. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators

let tc name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let qt ?(count = 50) name gen prop =
  (* A fixed random state keeps the suite deterministic run to run. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xBADC0DE |])
    (QCheck.Test.make ~count ~name gen prop)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* The Invariant 4.2 oracle, as the [on_round] hook of [Mapping.run] (or
   [~on_mapping_round] of [Strategy.run]): fails the run with
   [check_invariant]'s message, which names the node, at the first round
   that breaks the invariant. *)
let check_mapping_round st =
  match Hbn_core.Mapping.check_invariant st with
  | Ok () -> ()
  | Error msg -> failwith msg

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let profile_of prng =
  match Prng.int prng 3 with
  | 0 -> Builders.Uniform (Prng.int_in prng 1 4)
  | 1 -> Builders.Scaled_by_subtree (Prng.int_in prng 1 2)
  | _ -> Builders.Uniform 1

(* A random hierarchical bus network with 3..~40 nodes. *)
let random_tree prng =
  let profile = profile_of prng in
  match Prng.int prng 5 with
  | 0 -> Builders.star ~leaves:(Prng.int_in prng 2 8) ~profile
  | 1 ->
    Builders.balanced ~arity:(Prng.int_in prng 2 3)
      ~height:(Prng.int_in prng 1 3) ~profile
  | 2 ->
    let spine = Prng.int_in prng 1 5 in
    let min_leaves = if spine = 1 then 2 else 1 in
    Builders.caterpillar ~spine ~leaves_per_bus:(Prng.int_in prng min_leaves 3)
      ~profile
  | 3 ->
    Builders.random ~prng ~buses:(Prng.int_in prng 1 6)
      ~leaves:(Prng.int_in prng 2 10) ~profile
  | _ ->
    Builders.of_ring
      (Builders.sample_ring_of_rings ~prng ~depth:2 ~fanout:2 ~procs_per_ring:3)

(* A small tree suitable for brute-force comparison (<= 5 processors). *)
let small_tree prng =
  let profile = Builders.Uniform (Prng.int_in prng 1 3) in
  match Prng.int prng 3 with
  | 0 -> Builders.star ~leaves:(Prng.int_in prng 2 4) ~profile
  | 1 -> Builders.caterpillar ~spine:2 ~leaves_per_bus:2 ~profile
  | _ -> Builders.random ~prng ~buses:2 ~leaves:(Prng.int_in prng 2 4) ~profile

let random_workload prng tree =
  let objects = Prng.int_in prng 1 4 in
  match Prng.int prng 5 with
  | 0 -> Generators.uniform ~prng tree ~objects ~max_rate:(Prng.int_in prng 1 9)
  | 1 ->
    Generators.zipf_popularity ~prng tree ~objects
      ~requests_per_leaf:(Prng.int_in prng 1 12) ~exponent:1.1
      ~write_fraction:0.3
  | 2 ->
    Generators.hotspot ~prng tree ~objects ~writers_per_object:2
      ~write_rate:(Prng.int_in prng 1 6) ~read_rate:5
  | 3 ->
    Generators.producer_consumer ~prng tree ~objects ~consumers:3
      ~rate:(Prng.int_in prng 1 5)
  | _ ->
    Generators.local_with_background ~prng tree ~objects ~local_rate:20
      ~background_rate:2

(* A sparse workload for brute-force comparison: few requesting leaves. *)
let small_workload prng tree =
  let objects = Prng.int_in prng 1 2 in
  let w = Workload.empty tree ~objects in
  let leaves = Array.of_list (Tree.leaves tree) in
  for obj = 0 to objects - 1 do
    let k = Prng.int_in prng 1 (min 4 (Array.length leaves)) in
    let order = Array.copy leaves in
    Prng.shuffle prng order;
    for i = 0 to k - 1 do
      Workload.set_read w ~obj order.(i) (Prng.int_in prng 0 4);
      Workload.set_write w ~obj order.(i) (Prng.int_in prng 0 4)
    done
  done;
  w

let instance seed =
  let prng = Prng.create seed in
  let tree = random_tree prng in
  let w = random_workload prng tree in
  (tree, w)

let small_instance seed =
  let prng = Prng.create (seed + 77) in
  let tree = small_tree prng in
  let w = small_workload prng tree in
  (tree, w)

(* The shapes the bit-identity oracles run on: the random trees of
   [instance], stars of up to 40 leaves and caterpillars with spines of
   up to 60 buses. *)
let shaped_instance seed =
  let prng = Prng.create (seed + 4242) in
  let profile = profile_of prng in
  let tree =
    match Prng.int prng 3 with
    | 0 -> random_tree prng
    | 1 -> Builders.star ~leaves:(Prng.int_in prng 2 40) ~profile
    | _ ->
      Builders.caterpillar ~spine:(Prng.int_in prng 1 60)
        ~leaves_per_bus:(Prng.int_in prng 2 3) ~profile
  in
  (tree, random_workload prng tree)
