module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Prng = Hbn_prng.Prng

let prop_naive_valid_and_leaf_only seed =
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let p = Strategy.naive_nearest_leaf w in
  Placement.validate w p = Ok () && Placement.leaf_only t p

let prop_naive_never_beats_nibble seed =
  (* The nibble loads lower-bound every placement's congestion. *)
  let _, w = Helpers.instance seed in
  let p = Strategy.naive_nearest_leaf w in
  Placement.congestion w p
  >= Placement.congestion w (Hbn_nibble.Nibble.placement w) -. 1e-9

let prop_skip_deletion_sound_when_mapped seed =
  (* When the ablated pipeline happens to terminate, its output is still
     a valid leaf-only placement (just without the guarantee). *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  match Strategy.skip_deletion w with
  | Strategy.Stuck _ -> true
  | Strategy.Mapped p ->
    Placement.validate w p = Ok () && Placement.leaf_only t p

(* Experiment E14's instance family: seed [i] is its [i]-th instance. *)
let e14_instance seed =
  let prng = Prng.create (140000 + seed) in
  let tree =
    Builders.random ~prng ~buses:(Prng.int_in prng 3 8)
      ~leaves:(Prng.int_in prng 6 14) ~profile:(Builders.Uniform 2)
  in
  Hbn_workload.Generators.hotspot ~prng tree ~objects:6
    ~writers_per_object:(Prng.int_in prng 1 3)
    ~write_rate:(Prng.int_in prng 2 8) ~read_rate:8

(* Both variants return exactly what the hand-written pipeline returns:
   the same placement, or the same stuck node. *)
let matches_ref w =
  Strategy.naive_nearest_leaf w = Ablation_ref.naive_nearest_leaf w
  &&
  match (Strategy.skip_deletion w, Ablation_ref.skip_deletion w) with
  | Strategy.Mapped p, Ablation_ref.Mapped q -> p = q
  | Strategy.Stuck { node }, Ablation_ref.Stuck { node = node' } ->
    node = node'
  | (Strategy.Mapped _ | Strategy.Stuck _), _ -> false

let prop_matches_ref seed =
  let _, w = Helpers.instance seed in
  matches_ref w

let test_e14_family_matches_ref () =
  (* E14's 100 instances, stuck ones included. *)
  let stuck = ref 0 in
  for seed = 0 to 99 do
    let w = e14_instance seed in
    if not (matches_ref w) then
      Alcotest.failf "E14 instance %d differs from the reference" seed;
    match Strategy.skip_deletion w with
    | Strategy.Stuck _ -> incr stuck
    | Strategy.Mapped _ -> ()
  done;
  Alcotest.(check bool) "some E14 instance gets stuck" true (!stuck > 0)

let test_skip_deletion_can_fail () =
  (* Search a modest seed range for a genuine free-edge failure: the
     documented reason Step 2 exists. *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 300 do
    let w = e14_instance !seed in
    (match Strategy.skip_deletion w with
    | Strategy.Stuck _ -> found := true
    | Strategy.Mapped _ -> ());
    incr seed
  done;
  Alcotest.(check bool) "a stuck instance exists" true !found

let test_naive_loses_to_full_somewhere () =
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 100 do
    let _, w = Helpers.instance !seed in
    let full = Placement.congestion w (Strategy.run w).Strategy.placement in
    let naive = Placement.congestion w (Strategy.naive_nearest_leaf w) in
    if naive > full +. 1e-9 then found := true;
    incr seed
  done;
  Alcotest.(check bool) "naive strictly worse on some instance" true !found

let suite =
  [
    Helpers.tc "skip-deletion can get stuck (Lemma 4.1 needs Step 2)"
      test_skip_deletion_can_fail;
    Helpers.tc "naive mapping loses somewhere" test_naive_loses_to_full_somewhere;
    Helpers.qt "naive variant valid and leaf-only" Helpers.seed_arb
      prop_naive_valid_and_leaf_only;
    Helpers.qt "naive never beats the nibble bound" Helpers.seed_arb
      prop_naive_never_beats_nibble;
    Helpers.qt "skip-deletion output valid when it terminates"
      Helpers.seed_arb prop_skip_deletion_sound_when_mapped;
    Helpers.qt "variants match the reference pipeline" Helpers.seed_arb
      prop_matches_ref;
    Helpers.tc "E14 instances match the reference pipeline"
      test_e14_family_matches_ref;
  ]
