module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng

(* A hand-built reference network:

          0 (bus, bw 4)
         /           \
        1 (bus, 2)    2 (bus, 3)
       / \             \
      3   4             5      (processors)

   Edge ids follow the [edges] list below. *)
let example () =
  let kinds =
    [| Tree.Bus; Tree.Bus; Tree.Bus; Tree.Processor; Tree.Processor; Tree.Processor |]
  in
  let edges = [ (0, 1, 2); (0, 2, 3); (1, 3, 1); (1, 4, 1); (2, 5, 1) ] in
  Tree.make ~kinds ~edges
    ~bus_bandwidth:(fun v -> [| 4; 2; 3 |].(v))
    ()

let test_basic_accessors () =
  let t = example () in
  Alcotest.(check int) "n" 6 (Tree.n t);
  Alcotest.(check int) "edges" 5 (Tree.num_edges t);
  Alcotest.(check (list int)) "leaves" [ 3; 4; 5 ] (Tree.leaves t);
  Alcotest.(check (list int)) "buses" [ 0; 1; 2 ] (Tree.buses t);
  Alcotest.(check int) "num_leaves" 3 (Tree.num_leaves t);
  Alcotest.(check bool) "leaf kind" true (Tree.is_leaf t 3);
  Alcotest.(check bool) "bus kind" false (Tree.is_leaf t 0);
  Alcotest.(check int) "edge bw" 3 (Tree.edge_bandwidth t 1);
  Alcotest.(check int) "bus bw" 2 (Tree.bus_bandwidth t 1);
  Alcotest.(check int) "degree of 1" 3 (Tree.degree t 1);
  Alcotest.(check int) "max degree" 3 (Tree.max_degree t);
  Alcotest.(check int) "height" 2 (Tree.height t)

let test_bus_bandwidth_on_leaf () =
  let t = example () in
  Alcotest.check_raises "processor has no bus bandwidth"
    (Invalid_argument "Tree.bus_bandwidth: node is a processor") (fun () ->
      ignore (Tree.bus_bandwidth t 3))

(* Paths, LCAs and Steiner trees come from the Flat kernels; these
   collect them into lists so the hand-computed cases pin exact orders. *)
let path t u v =
  let fl = Flat.of_tree t in
  Tree_ref.collect (Flat.iter_path fl (Flat.Scratch.create fl) u v)

let steiner t nodes =
  let fl = Flat.of_tree t in
  Tree_ref.collect
    (Flat.iter_steiner fl (Flat.Scratch.create fl) ~nodes:(fun mark ->
         List.iter mark nodes))

let test_paths () =
  let t = example () in
  let fl = Flat.of_tree t in
  Alcotest.(check (list int)) "3 to 5" [ 2; 0; 1; 4 ] (path t 3 5);
  Alcotest.(check (list int)) "5 to 3" [ 4; 1; 0; 2 ] (path t 5 3);
  Alcotest.(check (list int)) "self" [] (path t 4 4);
  Alcotest.(check (list int)) "3 to 4" [ 2; 3 ] (path t 3 4);
  Alcotest.(check int) "length 3-5" 4 (Flat.distance fl 3 5);
  Alcotest.(check int) "length 0-5" 2 (Flat.distance fl 0 5)

let test_lca () =
  let fl = Flat.of_tree (example ()) in
  Alcotest.(check int) "lca leaves" 0 (Flat.lca fl 3 5);
  Alcotest.(check int) "lca siblings" 1 (Flat.lca fl 3 4);
  Alcotest.(check int) "lca ancestor" 1 (Flat.lca fl 1 4)

let test_steiner () =
  let t = example () in
  let sort = List.sort compare in
  Alcotest.(check (list int)) "pair = path" (sort [ 2; 0; 1; 4 ])
    (sort (steiner t [ 3; 5 ]));
  (* Preorder is 0 2 5 1 4 3: edges come out by their lower endpoint. *)
  Alcotest.(check (list int)) "pair in preorder" [ 1; 4; 0; 2 ] (steiner t [ 3; 5 ]);
  Alcotest.(check (list int)) "triple" (sort [ 2; 3; 0; 1; 4 ])
    (sort (steiner t [ 3; 4; 5 ]));
  Alcotest.(check (list int)) "singleton" [] (steiner t [ 3 ]);
  Alcotest.(check (list int)) "duplicates collapse" [] (steiner t [ 4; 4 ]);
  Alcotest.(check (list int)) "empty" [] (steiner t [])

let test_subtree_sums () =
  let t = example () in
  let r = Tree.rooting t in
  let w = [| 0; 0; 0; 1; 2; 4 |] in
  let sums = Tree.subtree_sums r w in
  Alcotest.(check int) "root sum" 7 sums.(0);
  Alcotest.(check int) "bus 1 subtree" 3 sums.(1);
  Alcotest.(check int) "bus 2 subtree" 4 sums.(2);
  Alcotest.(check int) "leaf" 2 sums.(4)

let test_levels () =
  let t = example () in
  let levels = Tree.nodes_by_level_bottom_up (Tree.rooting t) in
  Alcotest.(check int) "level count" 3 (Array.length levels);
  Alcotest.(check (list int)) "deepest" [ 3; 4; 5 ] (List.sort compare levels.(0));
  Alcotest.(check (list int)) "top" [ 0 ] levels.(2)

let test_validation_errors () =
  let p = Tree.Processor and b = Tree.Bus in
  let mk kinds edges =
    ignore (Tree.make ~kinds ~edges ~bus_bandwidth:(fun _ -> 1) ())
  in
  Alcotest.check_raises "wrong edge count"
    (Invalid_argument "Tree.make: a tree needs exactly n-1 edges") (fun () ->
      mk [| b; p; p |] [ (0, 1, 1) ]);
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.make: edges do not connect all nodes") (fun () ->
      (* A doubled bus-to-bus edge keeps all degrees legal but strands
         processor 4. *)
      mk [| b; b; p; p; p |] [ (0, 1, 1); (0, 1, 1); (0, 2, 1); (1, 3, 1) ]);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Tree.make: bad edge endpoints") (fun () ->
      mk [| b; p; p |] [ (0, 1, 1); (2, 2, 1) ]);
  Alcotest.check_raises "processor inside"
    (Invalid_argument "Tree.make: processors must be leaves") (fun () ->
      mk [| p; p; p |] [ (0, 1, 1); (0, 2, 1) ]);
  Alcotest.check_raises "bus as leaf"
    (Invalid_argument "Tree.make: buses must be inner nodes") (fun () ->
      mk [| b; b; p |] [ (0, 1, 1); (0, 2, 1) ]);
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Tree.make: bandwidths must be at least 1") (fun () ->
      mk [| b; p; p |] [ (0, 1, 0); (0, 2, 1) ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Tree.make: empty node set") (fun () -> mk [||] []);
  Alcotest.check_raises "single bus"
    (Invalid_argument "Tree.make: a single-node network is one processor")
    (fun () -> mk [| b |] [])

let test_single_processor () =
  let t =
    Tree.make ~kinds:[| Tree.Processor |] ~edges:[] ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  Alcotest.(check int) "n" 1 (Tree.n t);
  Alcotest.(check (list int)) "leaves" [ 0 ] (Tree.leaves t);
  Alcotest.(check int) "height" 0 (Tree.height t)

let test_paper_assumptions () =
  let t = example () in
  Helpers.check_ok "unit leaf switches" (Tree.validate_paper_assumptions t);
  let bad =
    Tree.make
      ~kinds:[| Tree.Bus; Tree.Processor; Tree.Processor |]
      ~edges:[ (0, 1, 2); (0, 2, 1) ]
      ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  match Tree.validate_paper_assumptions bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "should flag non-unit processor switch"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_to_dot () =
  let dot = Tree.to_dot (example ()) in
  Alcotest.(check bool) "mentions bus" true (contains dot "bus 0");
  Alcotest.(check bool) "mentions processor" true (contains dot "P3");
  Alcotest.(check bool) "mentions bandwidth label" true
    (contains dot "[label=\"2\"]")

let prop_path_length_consistent seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  let u = Prng.int prng (Tree.n t) and v = Prng.int prng (Tree.n t) in
  List.length (path t u v) = Flat.distance (Flat.of_tree t) u v

let prop_path_symmetric seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  let u = Prng.int prng (Tree.n t) and v = Prng.int prng (Tree.n t) in
  List.sort compare (path t u v) = List.sort compare (path t v u)

let prop_steiner_pair_is_path seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  let u = Prng.int prng (Tree.n t) and v = Prng.int prng (Tree.n t) in
  List.sort compare (steiner t [ u; v ]) = List.sort compare (path t u v)

(* The rooting at g read off the canonical one: next_hop is the parent
   and distance the depth. Wide stars stress the binary search over
   children, deep caterpillars long descents towards g. *)
let prop_next_hop_matches_reroot seed =
  let prng = Prng.create seed in
  let profile = Builders.Uniform 1 in
  let t =
    match Prng.int prng 3 with
    | 0 -> Helpers.random_tree prng
    | 1 -> Builders.star ~leaves:(Prng.int_in prng 2 40) ~profile
    | _ ->
      Builders.caterpillar ~spine:(Prng.int_in prng 5 60)
        ~leaves_per_bus:(Prng.int_in prng 1 3) ~profile
  in
  let fl = Flat.of_tree t and nodes = List.init (Tree.n t) Fun.id in
  List.for_all
    (fun g ->
      let parent, depth = Tree_ref.reroot t g in
      List.for_all
        (fun v ->
          Flat.distance fl g v = depth.(v)
          && (v = g || Flat.next_hop fl v g = parent.(v)))
        nodes)
    (List.init 3 (fun _ -> Prng.int prng (Tree.n t)))

let prop_subtree_sums_total seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  let w = Array.init (Tree.n t) (fun _ -> Prng.int prng 10) in
  let r = Tree.rooting t in
  let sums = Tree.subtree_sums r w in
  sums.(r.Tree.root) = Array.fold_left ( + ) 0 w

let suite =
  [
    Helpers.tc "basic accessors" test_basic_accessors;
    Helpers.tc "bus_bandwidth rejects processors" test_bus_bandwidth_on_leaf;
    Helpers.tc "paths" test_paths;
    Helpers.tc "lca" test_lca;
    Helpers.tc "steiner trees" test_steiner;
    Helpers.tc "subtree sums" test_subtree_sums;
    Helpers.tc "levels bottom-up" test_levels;
    Helpers.tc "validation errors" test_validation_errors;
    Helpers.tc "single processor network" test_single_processor;
    Helpers.tc "paper bandwidth assumption" test_paper_assumptions;
    Helpers.tc "dot export" test_to_dot;
    Helpers.qt "path length consistent" Helpers.seed_arb prop_path_length_consistent;
    Helpers.qt "path symmetric" Helpers.seed_arb prop_path_symmetric;
    Helpers.qt "steiner of pair is path" Helpers.seed_arb prop_steiner_pair_is_path;
    Helpers.qt "next_hop and distance match rerooting" Helpers.seed_arb
      prop_next_hop_matches_reroot;
    Helpers.qt "subtree sums total" Helpers.seed_arb prop_subtree_sums_total;
  ]
