(* The load-accounting engine's contract: any sequence of deltas leaves
   the incremental state identical to a from-scratch evaluation of its
   snapshot, and checkpoints roll back exactly. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Prng = Hbn_prng.Prng
module Attribution = Hbn_obs.Attribution

(* Initial copy sets: one random requesting leaf per requested object,
   plus a few extra random leaves. *)
let initial_copies ~prng w =
  let leaves = Tree.leaves_array (Workload.tree w) in
  Array.init (Workload.num_objects w) (fun obj ->
      match Workload.requesting_leaves w ~obj with
      | [] -> []
      | req ->
        let extra =
          List.init (Prng.int prng 3) (fun _ ->
              leaves.(Prng.int prng (Array.length leaves)))
        in
        List.sort_uniq compare (Prng.pick prng req :: extra))

(* Check engine state against the from-scratch evaluators. *)
let agrees w eng =
  let snap = Loads.snapshot eng in
  let scratch = Placement.edge_loads w snap in
  Loads.edge_loads eng = scratch
  && Loads.congestion eng = (Placement.evaluate w snap).Placement.value
  && Placement.validate w snap = Ok ()
  && List.for_all
       (fun obj ->
         Loads.object_edge_loads eng ~obj
         = Placement.edge_loads w [| snap.(obj) |])
       (List.init (Workload.num_objects w) Fun.id)

(* One random delta; [None] when nothing applies. Only nearest-rule ops,
   so the snapshot must equal [Placement.nearest] of the copy sets. *)
let random_nearest_delta ~prng w eng =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let obj = Prng.int prng (Workload.num_objects w) in
  if Array.length leaves = 0 then false
  else begin
    let leaf = leaves.(Prng.int prng (Array.length leaves)) in
    if Loads.has_copy eng ~obj leaf then begin
      if Loads.num_copies eng ~obj > 1 then begin
        Loads.remove_copy eng ~obj leaf;
        true
      end
      else false
    end
    else if Loads.num_copies eng ~obj = 0 then begin
      (* Unrequested object (requested ones got a seed copy): grow it. *)
      Loads.add_copy eng ~obj leaf;
      true
    end
    else if Prng.bool prng then begin
      Loads.add_copy eng ~obj leaf;
      true
    end
    else begin
      let victim = Prng.pick prng (Loads.copies eng ~obj) in
      Loads.move_copy eng ~obj ~src:victim ~dst:leaf;
      true
    end
  end

let prop_deltas_match_scratch seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 101) in
  let copies = initial_copies ~prng w in
  let eng = Loads.of_copies w copies in
  let ok = ref (agrees w eng) in
  for _ = 1 to 30 do
    if random_nearest_delta ~prng w eng then ok := !ok && agrees w eng
  done;
  (* Nearest-only deltas: snapshot coincides with Placement.nearest. *)
  let cs =
    Array.init (Workload.num_objects w) (fun obj -> Loads.copies eng ~obj)
  in
  !ok && Loads.snapshot eng = Placement.nearest w ~copies:cs

let prop_rollback_roundtrip seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 307) in
  let eng = Loads.of_copies w (initial_copies ~prng w) in
  for _ = 1 to 5 do
    ignore (random_nearest_delta ~prng w eng)
  done;
  let before_loads = Loads.edge_loads eng in
  let before_snap = Loads.snapshot eng in
  let cp = Loads.checkpoint eng in
  for _ = 1 to 12 do
    ignore (random_nearest_delta ~prng w eng)
  done;
  (* Nested checkpoint inside the outer span. *)
  let inner = Loads.checkpoint eng in
  ignore (random_nearest_delta ~prng w eng);
  Loads.rollback eng inner;
  for _ = 1 to 3 do
    ignore (random_nearest_delta ~prng w eng)
  done;
  Loads.rollback eng cp;
  Loads.edge_loads eng = before_loads
  && Loads.snapshot eng = before_snap
  && Loads.congestion eng = (Placement.evaluate w before_snap).Placement.value

(* {2 The bulk constructor against the fold of deltas}

   [Loads.of_copies] builds its state in one pass per object. The oracle
   is how it used to build it: an empty engine, then every object's
   ascending copies added one [add_copy] delta at a time. *)

let fold_of_copies w copies =
  let eng = Loads.of_copies w (Array.make (Workload.num_objects w) []) in
  Array.iteri
    (fun obj cs ->
      List.iter (fun c -> Loads.add_copy eng ~obj c) (List.sort_uniq compare cs))
    copies;
  eng

(* Everything observable, including every node's server and every
   object's own loads: hidden state ([below], [sdist]) that differs shows
   up after later deltas. *)
let same_engines w a b =
  let snapshot eng =
    try Ok (Loads.snapshot eng) with Invalid_argument m -> Error m
  in
  let nodes = List.init (Tree.n (Workload.tree w)) Fun.id in
  snapshot a = snapshot b
  && Loads.edge_loads a = Loads.edge_loads b
  && Loads.congestion a = Loads.congestion b
  && Attribution.equal (Attribution.of_loads a) (Attribution.of_loads b)
  && List.for_all
       (fun obj ->
         Loads.object_edge_loads a ~obj = Loads.object_edge_loads b ~obj
         && Loads.copies a ~obj = Loads.copies b ~obj
         && Loads.num_copies a ~obj = Loads.num_copies b ~obj
         && List.for_all
              (fun v -> Loads.server a ~obj v = Loads.server b ~obj v)
              nodes)
       (List.init (Workload.num_objects w) Fun.id)

(* Copy lists with duplicates, inner nodes and, for some requested
   objects, no copy at all. *)
let bulk_copies ~prng w =
  let n = Tree.n (Workload.tree w) in
  Array.map
    (fun cs ->
      let cs =
        if Prng.int prng 4 = 0 then Prng.int prng n :: cs else cs
      in
      match Prng.int prng 5 with 0 -> [] | 1 -> cs @ List.rev cs | _ -> cs)
    (initial_copies ~prng w)

(* Odd seeds run on stars and caterpillars up to spine 60 as well, where
   the bulk path loads of deep leaves span many edges. *)
let prop_bulk_matches_fold seed =
  let _, w =
    if seed mod 2 = 0 then Helpers.instance seed else Helpers.shaped_instance seed
  in
  let prng = Prng.create (seed + 211) in
  let copies = bulk_copies ~prng w in
  let bulk = Loads.of_copies w copies and fold = fold_of_copies w copies in
  (* The same delta sequence on both, driven by twin generators. *)
  let pa = Prng.create (seed + 5) and pb = Prng.create (seed + 5) in
  let step k =
    for _ = 1 to k do
      ignore (random_nearest_delta ~prng:pa w bulk);
      ignore (random_nearest_delta ~prng:pb w fold)
    done
  in
  let ok = same_engines w bulk fold in
  let cpa = Loads.checkpoint bulk and cpb = Loads.checkpoint fold in
  step 10;
  let ok = ok && same_engines w bulk fold in
  let ia = Loads.checkpoint bulk and ib = Loads.checkpoint fold in
  step 5;
  Loads.rollback bulk ia;
  Loads.rollback fold ib;
  let ok = ok && same_engines w bulk fold in
  step 5;
  let ok = ok && same_engines w bulk fold in
  Loads.rollback bulk cpa;
  Loads.rollback fold cpb;
  ok && same_engines w bulk fold
  && same_engines w bulk (fold_of_copies w copies)

(* Shapes far beyond the benchmark's: a 10^4-bus caterpillar (height
   10^4) and a 10^4-leaf star, 8 hotspot objects each. A pairwise
   nearest-copy scan is quadratic here and a fold of add_copy deltas
   worse, so the case only stays within seconds while nearest-copy
   assignment and engine construction are linear per object. *)
let test_far_beyond_bench_shapes () =
  let profile = Hbn_tree.Builders.Uniform 2 in
  List.iter
    (fun (name, tree) ->
      let prng = Prng.create 1 in
      let w =
        Hbn_workload.Generators.hotspot ~prng tree ~objects:8
          ~writers_per_object:4 ~write_rate:8 ~read_rate:6
      in
      let res = Hbn_core.Strategy.run w in
      let p = res.Hbn_core.Strategy.placement in
      Helpers.check_ok name (Placement.validate w p);
      ignore (Placement.evaluate w p);
      let copies = Array.map (fun op -> Array.to_list op.Placement.copies) p in
      let eng = Loads.of_copies w copies in
      Alcotest.(check (float 0.)) (name ^ ": engine congestion")
        (Placement.congestion w (Placement.nearest w ~copies))
        (Loads.congestion eng))
    [
      ( "caterpillar spine 10^4",
        Hbn_tree.Builders.caterpillar ~spine:10_000 ~leaves_per_bus:2 ~profile );
      ("star of 10^4 leaves", Hbn_tree.Builders.star ~leaves:10_000 ~profile);
    ]

let test_bulk_rejects_bad_input () =
  let t =
    Hbn_tree.Builders.star ~leaves:3 ~profile:(Hbn_tree.Builders.Uniform 1)
  in
  let w = Workload.empty t ~objects:1 in
  let leaf = List.hd (Tree.leaves t) in
  Workload.set_read w ~obj:0 leaf 2;
  List.iter
    (fun bad ->
      Alcotest.check_raises "node out of range"
        (Invalid_argument "Loads: node out of range") (fun () ->
          ignore (Loads.of_copies w [| [ leaf; bad ] |])))
    [ -1; Tree.n t ];
  Alcotest.check_raises "object count"
    (Invalid_argument "Loads.of_copies: object count mismatch") (fun () ->
      ignore (Loads.of_copies w [| [ leaf ]; [ leaf ] |]));
  let eng = Loads.of_copies w [| [ leaf; leaf; leaf ] |] in
  Alcotest.(check (list int)) "duplicates collapse" [ leaf ]
    (Loads.copies eng ~obj:0);
  Alcotest.(check int) "one copy" 1 (Loads.num_copies eng ~obj:0);
  Alcotest.(check bool) "matches scratch" true (agrees w eng)

let test_remove_last_copy_rejected () =
  let t =
    Hbn_tree.Builders.star ~leaves:3 ~profile:(Hbn_tree.Builders.Uniform 1)
  in
  let w = Workload.empty t ~objects:1 in
  let leaf = List.hd (Tree.leaves t) in
  Workload.set_read w ~obj:0 leaf 2;
  let eng = Loads.of_copies w [| [ leaf ] |] in
  Alcotest.check_raises "last copy"
    (Invalid_argument "Loads.remove_copy: would leave a requested object copyless")
    (fun () -> Loads.remove_copy eng ~obj:0 leaf)

let test_small_example () =
  (* Star with 3 processors; object 0 read by all, written by leaf 1. *)
  let t =
    Hbn_tree.Builders.star ~leaves:3 ~profile:(Hbn_tree.Builders.Uniform 1)
  in
  let w = Workload.empty t ~objects:1 in
  let leaves = Array.of_list (Tree.leaves t) in
  Array.iter (fun l -> Workload.set_read w ~obj:0 l 1) leaves;
  Workload.set_write w ~obj:0 leaves.(1) 1;
  let eng = Loads.of_copies w [| [ leaves.(0) ] |] in
  Alcotest.(check bool) "matches scratch" true (agrees w eng);
  let c_single = Loads.congestion eng in
  Loads.add_copy eng ~obj:0 leaves.(1);
  Alcotest.(check bool) "matches after add" true (agrees w eng);
  Alcotest.(check int) "two copies" 2 (Loads.num_copies eng ~obj:0);
  Loads.move_copy eng ~obj:0 ~src:leaves.(0) ~dst:leaves.(2);
  Alcotest.(check bool) "matches after move" true (agrees w eng);
  let cp = Loads.checkpoint eng in
  Loads.remove_copy eng ~obj:0 leaves.(2);
  Loads.rollback eng cp;
  Alcotest.(check (list int)) "rollback restores copies"
    [ leaves.(1); leaves.(2) ]
    (Loads.copies eng ~obj:0);
  ignore c_single

let suite =
  [
    Helpers.tc "small example with checkpoint" test_small_example;
    Helpers.tc "removing the last copy is rejected" test_remove_last_copy_rejected;
    Helpers.qt ~count:60 "delta sequences match from-scratch evaluation"
      Helpers.seed_arb prop_deltas_match_scratch;
    Helpers.tc "of_copies rejects bad nodes and object counts"
      test_bulk_rejects_bad_input;
    Helpers.qt ~count:80 "bulk of_copies equals the fold of add_copy"
      Helpers.seed_arb prop_bulk_matches_fold;
    Helpers.slow "far-beyond-bench caterpillar and star in linear time"
      test_far_beyond_bench_shapes;
    Helpers.qt ~count:60 "checkpoint/rollback restores the state exactly"
      Helpers.seed_arb prop_rollback_roundtrip;
  ]
