module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Placement_ref = Hbn_ref.Placement_ref
module Prng = Hbn_prng.Prng

(* Star: bus 0 (bw 2), processors 1, 2, 3; edge i connects processor i+1. *)
let star_instance () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 2) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 2;
  Workload.set_write w ~obj:0 1 3;
  Workload.set_read w ~obj:0 2 1;
  Workload.set_write w ~obj:0 3 4;
  (t, w)

let test_hand_computed_loads () =
  (* Copies on processors 1 and 3. Reads travel to the reference copy,
     writes additionally load the Steiner tree {e0, e2} with kappa = 7. *)
  let _, w = star_instance () in
  let p = Placement.nearest w ~copies:[| [ 1; 3 ] |] in
  let loads = Placement.edge_loads w p in
  Alcotest.(check (array int)) "edge loads" [| 8; 1; 7 |] loads;
  let c = Placement.evaluate w p in
  Alcotest.(check (float 1e-9)) "congestion" 8. c.Placement.value;
  (match c.Placement.bottleneck with
  | `Edge 0 -> ()
  | _ -> Alcotest.fail "bottleneck should be edge 0");
  Alcotest.(check int) "bus load doubled" 16 c.Placement.bus_loads2.(0);
  Alcotest.(check int) "total load" 16 (Placement.total_load w p)

let test_nearest_tie_breaking () =
  let _, w = star_instance () in
  let p = Placement.nearest w ~copies:[| [ 3; 1 ] |] in
  (* Processor 2 is equidistant from 1 and 3: ties go to the lowest id. *)
  let server_of_2 =
    List.find
      (fun a -> a.Placement_ref.leaf = 2)
      (Placement_ref.to_lists p).(0).Placement_ref.assigns
  in
  Alcotest.(check int) "tie to lowest id" 1 server_of_2.Placement_ref.server;
  Alcotest.(check (list int)) "copies sorted deduped" [ 1; 3 ]
    (Placement.copies p ~obj:0)

let test_nearest_requires_copies () =
  let _, w = star_instance () in
  Alcotest.check_raises "no copies"
    (Invalid_argument "Placement.nearest: requests but no copies") (fun () ->
      ignore (Placement.nearest w ~copies:[| [] |]))

let test_bus_congestion_bottleneck () =
  (* Make the bus the bottleneck by giving the edges big bandwidths. *)
  let t =
    Tree.make
      ~kinds:[| Tree.Bus; Tree.Processor; Tree.Processor |]
      ~edges:[ (0, 1, 10); (0, 2, 10) ]
      ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 8;
  let p = Placement.nearest w ~copies:[| [ 2 ] |] in
  let c = Placement.evaluate w p in
  (* Edge loads 8/10 each; bus load 8 over bandwidth 1. *)
  Alcotest.(check (float 1e-9)) "bus dominates" 8. c.Placement.value;
  match c.Placement.bottleneck with
  | `Bus 0 -> ()
  | _ -> Alcotest.fail "bottleneck should be the bus"

let test_full_replication () =
  let _, w = star_instance () in
  let p = Placement.full_replication w in
  Alcotest.(check (list int)) "copies everywhere" [ 1; 2; 3 ]
    (Placement.copies p ~obj:0);
  let loads = Placement.edge_loads w p in
  (* Reads are local; every write broadcasts over all three edges. *)
  Alcotest.(check (array int)) "broadcast loads" [| 7; 7; 7 |] loads

let test_single () =
  let _, w = star_instance () in
  let p = Placement.single w [ (0, 2) ] in
  Alcotest.(check (list int)) "one copy" [ 2 ] (Placement.copies p ~obj:0);
  let loads = Placement.edge_loads w p in
  (* Everything travels to processor 2; no Steiner edges for one copy:
     e0 carries processor 1's five requests, e2 processor 3's four, and
     e1 both streams on their way in. *)
  Alcotest.(check (array int)) "loads" [| 5; 9; 4 |] loads

let test_single_validation () =
  let _, w = star_instance () in
  Alcotest.check_raises "missing object"
    (Invalid_argument "Placement.single: object missing a copy") (fun () ->
      ignore (Placement.single w []));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Placement.single: duplicate object") (fun () ->
      ignore (Placement.single w [ (0, 1); (0, 2) ]))

let test_validate_catches_errors () =
  let _, w = star_instance () in
  let good = Placement.nearest w ~copies:[| [ 1 ] |] in
  Helpers.check_ok "good placement" (Placement.validate w good);
  let good0 = (Placement_ref.to_lists good).(0) in
  (* Wrong coverage: drop one assignment. *)
  let bad =
    Placement_ref.of_lists
      [| { good0 with Placement_ref.assigns = List.tl good0.Placement_ref.assigns } |]
  in
  (match Placement.validate w bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing assignment accepted");
  (* Server outside the copy set. *)
  let bad2 =
    Placement_ref.of_lists
      [|
        {
          good0 with
          Placement_ref.assigns =
            List.map
              (fun a -> { a with Placement_ref.server = 2 })
              good0.Placement_ref.assigns;
        };
      |]
  in
  (match Placement.validate w bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign server accepted");
  (* Duplicate copies. *)
  let bad3 = [| { good.(0) with Placement.copies = [| 1; 1 |] } |] in
  (match Placement.validate w bad3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate copies accepted");
  (* Assignment arrays of different lengths. *)
  let bad4 = [| { good.(0) with Placement.reads = [||] } |] in
  match Placement.validate w bad4 with
  | Error msg ->
    Alcotest.(check string) "names the arrays"
      "object 0: assignment arrays differ in length" msg
  | Ok () -> Alcotest.fail "ragged assignment arrays accepted"

(* One random corruption of a placement: a copy list, an assignment or
   the object array itself changed the way a buggy producer might. *)
let corrupt prng w (p : Placement.t) =
  let open Placement_ref in
  let n = Tree.n (Workload.tree w) in
  let pick xs = List.nth xs (Prng.int prng (List.length xs)) in
  let edit_nth xs f =
    let i = Prng.int prng (List.length xs) in
    List.concat (List.mapi (fun j x -> if j = i then f x else [ x ]) xs)
  in
  let p = to_lists p in
  let obj = Prng.int prng (Array.length p) in
  let op = p.(obj) in
  let copies = op.copies and assigns = op.assigns in
  let node () = Prng.int prng n in
  let edit_assign f =
    if assigns <> [] then
      p.(obj) <- { op with assigns = edit_nth assigns f }
  in
  (match Prng.int prng 11 with
  | 0 ->
    if copies <> [] then
      p.(obj) <- { op with copies = pick copies :: copies }
  | 1 ->
    let outside = if Prng.bool prng then -1 else n in
    p.(obj) <- { op with copies = copies @ [ outside ] }
  | 2 -> edit_assign (fun a -> [ { a with reads = -1 } ])
  | 3 -> edit_assign (fun a -> [ { a with server = node () } ])
  | 4 ->
    let leaf = if Prng.int prng 8 = 0 then n else node () in
    edit_assign (fun a -> [ { a with leaf } ])
  | 5 -> edit_assign (fun _ -> [])
  | 6 ->
    edit_assign (fun a ->
        if Prng.bool prng then
          [ { a with reads = a.reads + 1 } ]
        else [ { a with writes = a.writes + 1 } ])
  | 7 -> edit_assign (fun a -> [ a; { a with leaf = node () } ])
  | 8 ->
    if copies <> [] then
      p.(obj) <- { op with copies = edit_nth copies (fun _ -> []) }
  | 9 ->
    let other = Prng.int prng (Array.length p) in
    p.(obj) <- p.(other);
    p.(other) <- op
  | _ -> ());
  let p = of_lists p in
  if Prng.int prng 12 = 0 then Array.sub p 0 (Array.length p - 1) else p

(* The per-object-linear validator returns exactly the all-nodes oracle's
   verdict and first message on corrupted placements (Step 1 placements
   with bus copies and final ones, one to three corruptions each). Where
   the oracle raises on an assignment from outside the tree, it must
   report an error instead. *)
let prop_validate_matches_oracle seed =
  let _, w = Helpers.shaped_instance seed in
  let prng = Prng.create seed in
  let res = Hbn_core.Strategy.run w in
  let base =
    if Prng.bool prng then res.Hbn_core.Strategy.placement
    else Hbn_core.Strategy.nibble_placement w res
  in
  let p = ref base in
  for _ = 1 to Prng.int_in prng 1 3 do
    if Array.length !p > 0 then p := corrupt prng w !p
  done;
  match Strategy_ref.validate w !p with
  | want -> Placement.validate w !p = want
  | exception Invalid_argument _ -> Result.is_error (Placement.validate w !p)

let test_strictness () =
  let _, w = star_instance () in
  let split =
    Placement_ref.of_lists
      [|
        {
          Placement_ref.copies = [ 1; 3 ];
          assigns =
            [
              { Placement_ref.leaf = 1; server = 1; reads = 2; writes = 3 };
              { Placement_ref.leaf = 2; server = 1; reads = 1; writes = 0 };
              { Placement_ref.leaf = 3; server = 3; reads = 0; writes = 1 };
              { Placement_ref.leaf = 3; server = 1; reads = 0; writes = 3 };
            ];
        };
      |]
  in
  Helpers.check_ok "split covers workload" (Placement.validate w split);
  Alcotest.(check bool) "split is not strict" false
    (Placement_ref.is_strict split);
  let strict = Placement_ref.to_strict split in
  Alcotest.(check bool) "to_strict strict" true (Placement_ref.is_strict strict);
  Helpers.check_ok "strict still covers" (Placement.validate w strict);
  (* Processor 3's majority server is copy 1 (3 vs 1 requests). *)
  let a3 =
    List.find
      (fun a -> a.Placement_ref.leaf = 3)
      (Placement_ref.to_lists strict).(0).Placement_ref.assigns
  in
  Alcotest.(check int) "majority server" 1 a3.Placement_ref.server

let test_leaf_only () =
  let t, w = star_instance () in
  let leafy = Placement.nearest w ~copies:[| [ 1 ] |] in
  Alcotest.(check bool) "leaves only" true (Placement.leaf_only t leafy);
  let bus =
    [|
      {
        leafy.(0) with
        Placement.copies = [| 0 |];
        server = Array.map (fun _ -> 0) leafy.(0).Placement.server;
      };
    |]
  in
  Alcotest.(check bool) "bus copy detected" false (Placement.leaf_only t bus)

let test_path_steiner_overlap_counted_twice () =
  (* A write whose reference path overlaps the Steiner tree loads those
     edges twice (request + broadcast), matching the model's definition. *)
  let t =
    Builders.caterpillar ~spine:2 ~leaves_per_bus:1 ~profile:(Builders.Uniform 1)
  in
  (* Structure: bus0 - bus2(=spine); processors 1,3 at ends + extras. *)
  let leaves = Tree.leaves t in
  let l0 = List.nth leaves 0 and l1 = List.nth leaves 1 in
  let w = Workload.empty t ~objects:1 in
  Workload.set_write w ~obj:0 l0 1;
  Workload.set_write w ~obj:0 l1 1;
  let p =
    Placement_ref.of_lists
      [|
        {
          Placement_ref.copies = [ l0; l1 ];
          assigns =
            [
              (* l0 uses the far copy: its path lies inside the Steiner tree. *)
              { Placement_ref.leaf = l0; server = l1; reads = 0; writes = 1 };
              { Placement_ref.leaf = l1; server = l1; reads = 0; writes = 1 };
            ];
        };
      |]
  in
  let loads = Placement.edge_loads w p in
  let path = Tree_ref.path_edges t l0 l1 in
  List.iter
    (fun e ->
      Alcotest.(check int) "path+steiner" 3 loads.(e))
    path

let prop_nearest_valid seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 1) in
  let t = Workload.tree w in
  let leaves = Array.of_list (Tree.leaves t) in
  let copies =
    Array.init (Workload.num_objects w) (fun _ ->
        let k = Prng.int_in prng 1 (Array.length leaves) in
        let order = Array.copy leaves in
        Prng.shuffle prng order;
        Array.to_list (Array.sub order 0 k))
  in
  let p = Placement.nearest w ~copies in
  (* Every server is the one the pairwise scan picks. *)
  Placement.validate w p = Ok ()
  && Placement_ref.is_strict p
  && Array.for_all
       (fun (op : Placement.obj_placement) ->
         let copies = Array.to_list op.copies in
         Array.for_all2
           (fun leaf server -> fst (Tree_ref.nearest_copy t copies leaf) = server)
           op.leaf op.server)
       p

let prop_full_replication_reads_free seed =
  let _, w = Helpers.instance seed in
  let p = Placement.full_replication w in
  (* With copies everywhere, only write broadcasts load edges: every edge
     load is at most the total write contention. *)
  let kappa_total =
    List.fold_left ( + ) 0
      (List.init (Workload.num_objects w) (fun obj ->
           Workload.write_contention w ~obj))
  in
  Array.for_all (fun l -> l <= kappa_total) (Placement.edge_loads w p)

(* {2 The difference kernel against the component fold} *)

(* The oracle: every elementary contribution that
   [iter_object_load_components_scratch] reports, folded edge by edge. *)
let component_fold w p =
  let fl = Flat.of_tree (Workload.tree w) in
  let scratch = Flat.Scratch.create fl in
  let loads = Array.make (max 1 fl.Flat.m) 0 in
  Array.iter
    (fun op ->
      Placement.iter_object_load_components_scratch fl scratch op
        (fun e _ a -> loads.(e) <- loads.(e) + a))
    p;
  loads

(* Nearest assignments over random copy sets on random trees, stars and
   caterpillars up to spine 60: a single copy or several, inner nodes
   among them, and a requesting leaf holding one so that some leaf is
   its own server. Then, per object, its writes zeroed or its copy list
   doubled into duplicates. *)
let kernel_copies seed =
  let tree, w = Helpers.shaped_instance seed in
  let prng = Prng.create (seed + 61) in
  let n = Tree.n tree in
  let copies =
    Array.init (Workload.num_objects w) (fun obj ->
        let own =
          match Workload.requesting_leaves w ~obj with
          | [] -> [ Prng.int prng n ]
          | req -> [ Prng.pick prng req ]
        in
        if Prng.int prng 3 = 0 then own
        else own @ List.init (Prng.int_in prng 1 4) (fun _ -> Prng.int prng n))
  in
  (w, prng, copies)

let kernel_placement seed =
  let w, prng, copies = kernel_copies seed in
  let p =
    Array.map
      (fun (op : Placement.obj_placement) ->
        match Prng.int prng 4 with
        | 0 -> { op with writes = Array.map (fun _ -> 0) op.writes }
        | 1 -> { op with copies = Array.append op.copies op.copies }
        | _ -> op)
      (Placement.nearest w ~copies)
  in
  (w, p)

(* The flat nearest assignment against the list builder. *)
let prop_nearest_matches_list_builder seed =
  let w, _, copies = kernel_copies seed in
  Placement.nearest w ~copies = Placement_ref.nearest w ~copies

let prop_edge_loads_match_component_fold seed =
  let w, p = kernel_placement seed in
  Placement.edge_loads w p = component_fold w p
  && List.for_all
       (fun obj ->
         Placement.edge_loads w [| p.(obj) |] = component_fold w [| p.(obj) |])
       (List.init (Array.length p) Fun.id)

let suite =
  [
    Helpers.tc "hand-computed loads" test_hand_computed_loads;
    Helpers.tc "nearest tie-breaking" test_nearest_tie_breaking;
    Helpers.tc "nearest requires copies" test_nearest_requires_copies;
    Helpers.tc "bus can be the bottleneck" test_bus_congestion_bottleneck;
    Helpers.tc "full replication" test_full_replication;
    Helpers.tc "single placement" test_single;
    Helpers.tc "single validation" test_single_validation;
    Helpers.tc "validate catches errors" test_validate_catches_errors;
    Helpers.tc "strict vs split assignments" test_strictness;
    Helpers.tc "leaf_only" test_leaf_only;
    Helpers.tc "path/steiner overlap double-counted"
      test_path_steiner_overlap_counted_twice;
    Helpers.qt "nearest placements validate" Helpers.seed_arb prop_nearest_valid;
    Helpers.qt "nearest = list builder" Helpers.seed_arb
      prop_nearest_matches_list_builder;
    Helpers.qt ~count:150 "edge_loads equals the fold of load components"
      Helpers.seed_arb prop_edge_loads_match_component_fold;
    Helpers.qt ~count:300 "validate matches the all-nodes oracle when corrupted"
      Helpers.seed_arb prop_validate_matches_oracle;
    Helpers.qt "full replication loads bounded by contention" Helpers.seed_arb
      prop_full_replication_reads_free;
  ]

(* --- dot export --------------------------------------------------------- *)

let test_placement_to_dot () =
  let _, w = star_instance () in
  let t = Workload.tree w in
  let p = Placement.nearest w ~copies:[| [ 1; 3 ] |] in
  let dot = Placement_ref.to_dot t p in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "copy holder labeled" true (contains dot "P1\\nx0");
  Alcotest.(check bool) "empty processor plain" true (contains dot "\"P2\"");
  Alcotest.(check bool) "bus box" true (contains dot "bus 0")

let suite = suite @ [ Helpers.tc "placement dot export" test_placement_to_dot ]
