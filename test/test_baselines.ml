module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Placement_ref = Hbn_ref.Placement_ref
module Baselines = Hbn_baselines.Baselines
module Prng = Hbn_prng.Prng

let instance () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:2 in
  let leaves = Tree.leaves t in
  List.iteri
    (fun i leaf ->
      Workload.set_read w ~obj:0 leaf (i + 1);
      Workload.set_write w ~obj:1 leaf 1)
    leaves;
  Workload.set_write w ~obj:0 (List.hd leaves) 5;
  (t, w)

let test_owner_places_at_heaviest () =
  let _, w = instance () in
  let p = Baselines.owner w in
  (* Object 0: leaf 0 has weight 1+5 = 6, the maximum. *)
  let leaves = Tree.leaves (Workload.tree w) in
  Alcotest.(check (list int)) "owner of object 0" [ List.hd leaves ]
    (Placement.copies p ~obj:0);
  Helpers.check_ok "valid" (Placement.validate w p)

let test_owner_skips_unused () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  let p = Baselines.owner w in
  Alcotest.(check (list int)) "no copies" [] (Placement.copies p ~obj:0)

let test_gravity_leaf_valid () =
  let _, w = instance () in
  let p = Baselines.gravity_leaf w in
  Helpers.check_ok "valid" (Placement.validate w p);
  Alcotest.(check int) "one copy" 1
    (List.length (Placement.copies p ~obj:0))

let test_random_leaf_valid () =
  let _, w = instance () in
  let p = Baselines.random_leaf ~prng:(Prng.create 3) w in
  Helpers.check_ok "valid" (Placement.validate w p);
  (* The copy is on a requesting leaf. *)
  let requesting = Workload.requesting_leaves w ~obj:0 in
  List.iter
    (fun c ->
      Alcotest.(check bool) "requesting" true (List.mem c requesting))
    (Placement.copies p ~obj:0)

let test_local_search_improves () =
  let _, w = instance () in
  let owner_c = Placement.congestion w (Baselines.owner w) in
  let ls = Baselines.local_search ~iterations:150 ~prng:(Prng.create 7) w in
  Helpers.check_ok "valid" (Placement.validate w ls);
  Alcotest.(check bool) "no worse than owner" true
    (Placement.congestion w ls <= owner_c +. 1e-9)

let prop_all_baselines_valid seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 13) in
  let t = Workload.tree w in
  List.for_all
    (fun p ->
      Placement.validate w p = Ok () && Placement.leaf_only t p)
    [
      Baselines.owner w;
      Baselines.gravity_leaf w;
      Baselines.random_leaf ~prng w;
      Baselines.full_replication w;
      Baselines.local_search ~iterations:30 ~prng w;
    ]

(* The climb starts from the owner placement: with no proposals it is
   the owner baseline. *)
let prop_local_search_starts_at_owner seed =
  let _, w = Helpers.instance seed in
  Baselines.local_search ~iterations:0 ~prng:(Prng.create seed) w
  = Baselines.owner w

let prop_local_search_never_worse seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 17) in
  Placement.congestion w (Baselines.local_search ~iterations:60 ~prng w)
  <= Placement.congestion w (Baselines.owner w) +. 1e-9

(* --- hill_climb on the incremental load engine --------------------------- *)

let start_copies w =
  Array.init (Workload.num_objects w) (fun obj ->
      match Workload.requesting_leaves w ~obj with
      | [] -> []
      | leaf :: _ -> [ leaf ])

let prop_hill_climb_matches_scratch seed =
  (* The from-scratch oracle replays the engine climb's proposal stream
     with its own copy of the proposal step, and both evaluate congestion
     with bit-identical arithmetic, so for the same seed they must walk
     the same trajectory and land on structurally equal placements. *)
  let _, w = Helpers.instance seed in
  let copies = start_copies w in
  let engine =
    Baselines.hill_climb ~iterations:80 ~prng:(Prng.create (seed + 5)) w copies
  in
  let scratch =
    Hbn_ref.Baselines_ref.hill_climb_scratch ~iterations:80
      ~prng:(Prng.create (seed + 5)) w copies
  in
  engine = scratch && Placement.validate w engine = Ok ()

let test_local_search_pinned () =
  (* Seed-pinned regression guarding the deterministic proposal stream of
     the engine-backed hill climb: any change to the PRNG draw order, the
     tie-breaking, or the congestion arithmetic shows up here. *)
  let _, w = instance () in
  let p = Baselines.local_search ~iterations:200 ~prng:(Prng.create 42) w in
  Alcotest.(check (float 0.0)) "congestion" 10.0 (Placement.congestion w p);
  Alcotest.(check (list int)) "object 0 copies" [ 2; 6 ]
    (Placement.copies p ~obj:0);
  Alcotest.(check (list int)) "object 1 copies" [ 2 ]
    (Placement.copies p ~obj:1)

let suite =
  [
    Helpers.tc "owner places at heaviest processor" test_owner_places_at_heaviest;
    Helpers.tc "owner skips unused objects" test_owner_skips_unused;
    Helpers.tc "gravity leaf valid" test_gravity_leaf_valid;
    Helpers.tc "random leaf valid" test_random_leaf_valid;
    Helpers.tc "local search improves on owner" test_local_search_improves;
    Helpers.qt "all baselines produce valid leaf placements" Helpers.seed_arb
      prop_all_baselines_valid;
    Helpers.qt "local search never worse than owner" Helpers.seed_arb
      prop_local_search_never_worse;
    Helpers.qt "local search of 0 iterations is the owner placement"
      Helpers.seed_arb prop_local_search_starts_at_owner;
    Helpers.qt ~count:60 "hill climb matches from-scratch climb"
      Helpers.seed_arb prop_hill_climb_matches_scratch;
    Helpers.tc "local search pinned for seed 42" test_local_search_pinned;
  ]

(* --- polish -------------------------------------------------------------- *)

let prop_polish_never_worse seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 23) in
  let ext = (Hbn_core.Strategy.run w).Hbn_core.Strategy.placement in
  let polished = Baselines.polish ~iterations:50 ~prng w ext in
  Placement.validate w polished = Ok ()
  && Placement.congestion w polished <= Placement.congestion w ext +. 1e-9

let test_polish_rejects_bus_placements () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_write w ~obj:0 1 3;
  let bad =
    Placement_ref.of_lists [|
      {
        Placement_ref.copies = [ 0 ];
        assigns = [ { Placement_ref.leaf = 1; server = 0; reads = 0; writes = 3 } ];
      };
    |]
  in
  Alcotest.check_raises "bus placement"
    (Invalid_argument "Baselines.polish: placement must be leaf-only")
    (fun () -> ignore (Baselines.polish ~prng:(Prng.create 1) w bad))

let polish_suite =
  [
    Helpers.tc "polish rejects bus placements" test_polish_rejects_bus_placements;
    Helpers.qt ~count:40 "polish never worse than its input" Helpers.seed_arb
      prop_polish_never_worse;
  ]

let suite = suite @ polish_suite
