module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble
module Placement = Hbn_placement.Placement
module Brute_force = Hbn_exact.Brute_force
module Prng = Hbn_prng.Prng

(* Path of three buses with one processor each (caterpillar 3x1 grows end
   leaves): convenient for hand-checking the center of gravity. *)
let test_gravity_center_simple () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  (* All the weight on processor 1: removing node 1 leaves weight 0. *)
  let g = Nibble.gravity_center t ~weights:[| 0; 10; 0; 0 |] in
  Alcotest.(check int) "heavy leaf is the center" 1 g;
  (* Balanced weights: the bus is the center. *)
  let g2 = Nibble.gravity_center t ~weights:[| 0; 3; 3; 3 |] in
  Alcotest.(check int) "bus is the center" 0 g2;
  (* Zero weight: every node qualifies, the smallest index wins. *)
  Alcotest.(check int) "zero weight" 0
    (Nibble.gravity_center t ~weights:[| 0; 0; 0; 0 |])

let test_gravity_center_split () =
  (* Two heavy leaves on opposite sides of a two-bus spine. *)
  let t =
    Builders.caterpillar ~spine:2 ~leaves_per_bus:1 ~profile:(Builders.Uniform 1)
  in
  (* Nodes: bus0 {leaves 1,2}, bus3 {leaves 4,5}. *)
  let w = Array.make (Tree.n t) 0 in
  w.(1) <- 5;
  w.(4) <- 5;
  let g = Nibble.gravity_center t ~weights:w in
  Alcotest.(check bool) "a bus in the middle" true (g = 0 || g = 3)

let make_workload t specs =
  let w = Workload.empty t ~objects:(Array.length specs) in
  Array.iteri
    (fun obj leafs ->
      List.iter (fun (leaf, r, wr) ->
          Workload.set_read w ~obj leaf r;
          Workload.set_write w ~obj leaf wr)
        leafs)
    specs;
  w

let test_place_rule () =
  (* Star, one object: processor 1 reads a lot, processor 2 writes a bit.
     kappa = 2; total = 12. Gravity = leaf 1 (component weights after
     removing it: 2 <= 6). Copy rule: node v with subtree weight > kappa. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [| [ (1, 10, 0); (2, 0, 2) ] |] in
  let cs = Nibble.place w ~obj:0 in
  Alcotest.(check int) "gravity" 1 cs.Nibble.gravity;
  (* Rooted at 1: subtree of bus 0 holds weight 2 (not > 2), leaf 2 holds
     2 (not > 2) — only the gravity node gets a copy. *)
  Alcotest.(check (list int)) "copies" [ 1 ] cs.Nibble.nodes

let test_place_spreads_for_reads () =
  (* Heavy readers everywhere, no writes: every requesting node and the
     connecting buses hold copies. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [| [ (1, 4, 0); (2, 4, 0); (3, 4, 0) ] |] in
  let cs = Nibble.place w ~obj:0 in
  Alcotest.(check (list int)) "everything holds a copy" [ 0; 1; 2; 3 ]
    cs.Nibble.nodes

let test_unused_object () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  let cs = Nibble.place w ~obj:0 in
  Alcotest.(check (list int)) "no copies" [] cs.Nibble.nodes

let test_served_groups_partition () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [| [ (1, 10, 0); (2, 0, 2); (3, 1, 1) ] |] in
  let cs = Nibble.place w ~obj:0 in
  let groups = Nibble.served_groups w cs in
  let total =
    Array.fold_left
      (fun acc gs ->
        acc + List.fold_left (fun a g -> a + Nibble.group_weight g) 0 gs)
      0 groups
  in
  Alcotest.(check int) "all requests assigned" 14 total;
  (* Each requesting leaf appears exactly once. *)
  let leaves =
    Array.to_list groups |> List.concat
    |> List.map (fun g -> g.Nibble.leaf)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "leaves once" [ 1; 2; 3 ] leaves

let test_is_connected () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  Alcotest.(check bool) "empty" true (Nibble.is_connected t []);
  Alcotest.(check bool) "single" true (Nibble.is_connected t [ 3 ]);
  let r = Tree.rooting t in
  let child = r.Tree.children.(r.Tree.root).(0) in
  Alcotest.(check bool) "root and child" true
    (Nibble.is_connected t [ r.Tree.root; child ]);
  let l1 = List.nth (Tree.leaves t) 0 and l2 = List.nth (Tree.leaves t) 3 in
  Alcotest.(check bool) "two far leaves" false (Nibble.is_connected t [ l1; l2 ])

(* Theorem 3.1 properties on random instances. *)

let prop_copy_set_connected_with_gravity seed =
  let _, w = Helpers.instance seed in
  let tree = Workload.tree w in
  let sets = Nibble.place_all w in
  Array.for_all
    (fun cs ->
      cs.Nibble.nodes = []
      || (List.mem cs.Nibble.gravity cs.Nibble.nodes
         && Nibble.is_connected tree cs.Nibble.nodes))
    sets

(* The nibble rule and the service walk evaluated on an explicit rooting
   at the gravity center, which the library never builds: subtree sums
   accumulated deepest node first, and each requesting leaf served by the
   first copy on its walk towards the root. *)
let prop_place_matches_rerooted_rule seed =
  let _, w = Helpers.instance seed in
  let tree = Workload.tree w in
  let n = Tree.n tree in
  let all = List.init n Fun.id in
  Array.for_all
    (fun cs ->
      let obj = cs.Nibble.obj in
      let weights = Workload.weight_vector w ~obj in
      if Workload.total_weight w ~obj = 0 then cs.Nibble.nodes = []
      else begin
        let g = cs.Nibble.gravity in
        let parent, depth = Tree_ref.reroot tree g in
        let sums = Array.copy weights in
        List.sort (fun a b -> compare depth.(b) depth.(a)) all
        |> List.iter (fun v ->
               if v <> g then sums.(parent.(v)) <- sums.(parent.(v)) + sums.(v));
        let kappa = Workload.write_contention w ~obj in
        let nodes = List.filter (fun v -> v = g || sums.(v) > kappa) all in
        let served = Array.make n [] in
        List.iter
          (fun leaf ->
            let rec server v = if List.mem v nodes then v else server parent.(v) in
            let s = server leaf in
            served.(s) <-
              {
                Nibble.leaf;
                reads = Workload.reads w ~obj leaf;
                writes = Workload.writes w ~obj leaf;
              }
              :: served.(s))
          (Workload.requesting_leaves w ~obj);
        let sorted = Array.map (List.sort compare) in
        g = Nibble.gravity_center tree ~weights
        && cs.Nibble.nodes = nodes
        && sorted (Nibble.served_groups w cs)
           = sorted (Array.of_list (List.map (Array.get served) nodes))
      end)
    (Nibble.place_all w)

(* Bit-identity with the per-node oracles: the copy sets, and the served
   groups in their exact order, with every node off the copy set serving
   nothing. *)
let prop_place_matches_oracle seed =
  let _, w = Helpers.shaped_instance seed in
  List.for_all
    (fun obj ->
      let cs = Nibble.place w ~obj in
      cs = Strategy_ref.place w ~obj
      && (cs.Nibble.nodes = []
         ||
         let old = Hbn_ref.Deletion_ref.served_groups w cs in
         Nibble.served_groups w cs
         = Array.of_list (List.map (Array.get old) cs.Nibble.nodes)
         && List.for_all
              (fun v -> List.mem v cs.Nibble.nodes || old.(v) = [])
              (List.init (Array.length old) Fun.id)))
    (List.init (Workload.num_objects w) Fun.id)

let prop_component_edge_load_is_kappa seed =
  (* Inside T(x) every edge carries exactly kappa_x; outside at most
     kappa_x (third and fourth bullets of Theorem 3.1). *)
  let _, w = Helpers.instance seed in
  let tree = Workload.tree w in
  let sets = Nibble.place_all w in
  let p = Nibble.placement w in
  Array.for_all
    (fun cs ->
      let obj = cs.Nibble.obj in
      let kappa = Workload.write_contention w ~obj in
      let loads = Placement.edge_loads w [| p.(obj) |] in
      let in_component = Array.make (max 1 (Tree.num_edges tree)) false in
      List.iter
        (fun e -> in_component.(e) <- true)
        (Tree_ref.steiner_edges tree cs.Nibble.nodes);
      let ok = ref true in
      Array.iteri
        (fun e l ->
          if in_component.(e) then begin
            (* Fourth bullet: component edges carry exactly kappa. *)
            if l <> kappa then ok := false
          end
          else if l > kappa then
            (* Third bullet: every edge load is at most kappa (a heavier
               subtree would have earned its own copy). *)
            ok := false)
        loads;
      !ok)
    sets

let prop_nibble_minimizes_every_edge seed =
  (* The headline of Theorem 3.1: on every edge simultaneously, the nibble
     load equals the minimum over all placements (inner nodes allowed). *)
  let _, w = Helpers.small_instance seed in
  match Brute_force.min_edge_loads w ~candidates:`All_nodes with
  | mins -> Nibble.edge_loads w = mins
  | exception Brute_force.Too_large _ -> QCheck.assume_fail ()

let prop_nibble_congestion_lower_bound seed =
  (* Consequently the nibble congestion lower-bounds the leaf-only optimum. *)
  let _, w = Helpers.small_instance seed in
  match Brute_force.optimum w ~candidates:`Leaves with
  | opt ->
    Placement.congestion w (Nibble.placement w)
    <= opt.Brute_force.congestion +. 1e-9
  | exception Brute_force.Too_large _ -> QCheck.assume_fail ()

let suite =
  [
    Helpers.tc "gravity center simple" test_gravity_center_simple;
    Helpers.tc "gravity center split" test_gravity_center_split;
    Helpers.tc "placement rule" test_place_rule;
    Helpers.tc "read-heavy spreads copies" test_place_spreads_for_reads;
    Helpers.tc "unused object" test_unused_object;
    Helpers.tc "served groups partition requests" test_served_groups_partition;
    Helpers.tc "is_connected" test_is_connected;
    Helpers.qt "copy sets connected and contain gravity" Helpers.seed_arb
      prop_copy_set_connected_with_gravity;
    Helpers.qt "place and served groups match the rerooted rule"
      Helpers.seed_arb prop_place_matches_rerooted_rule;
    Helpers.qt ~count:150 "place and served groups match the per-node oracle"
      Helpers.seed_arb prop_place_matches_oracle;
    Helpers.qt "component edges carry kappa" Helpers.seed_arb
      prop_component_edge_load_is_kappa;
    Helpers.qt ~count:100 "nibble minimizes every edge (Thm 3.1)"
      Helpers.seed_arb prop_nibble_minimizes_every_edge;
    Helpers.qt ~count:30 "nibble congestion lower-bounds bus optimum"
      Helpers.seed_arb prop_nibble_congestion_lower_bound;
  ]
