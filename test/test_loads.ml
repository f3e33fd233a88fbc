(* The load-accounting engine's contract: any sequence of deltas leaves
   the incremental state identical to a from-scratch evaluation of its
   snapshot, and checkpoints roll back exactly. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Prng = Hbn_prng.Prng

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
    Helpers.qt ~count:60 "checkpoint/rollback restores the state exactly"
      Helpers.seed_arb prop_rollback_roundtrip;
  ]
