module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Prng = Hbn_prng.Prng

let star n = Builders.star ~leaves:n ~profile:(Builders.Uniform 2)

let test_empty_and_set () =
  let t = star 3 in
  let w = Workload.empty t ~objects:2 in
  Alcotest.(check int) "objects" 2 (Workload.num_objects w);
  Alcotest.(check int) "zero" 0 (Workload.reads w ~obj:0 1);
  Workload.set_read w ~obj:0 1 5;
  Workload.set_write w ~obj:0 2 3;
  Alcotest.(check int) "read set" 5 (Workload.reads w ~obj:0 1);
  Alcotest.(check int) "write set" 3 (Workload.writes w ~obj:0 2);
  Alcotest.(check int) "weight" 0 (Workload.weight w ~obj:1 1);
  Alcotest.(check int) "kappa" 3 (Workload.write_contention w ~obj:0);
  Alcotest.(check int) "total weight" 8 (Workload.total_weight w ~obj:0);
  Alcotest.(check int) "total requests" 8 (Workload.total_requests w);
  Alcotest.(check (list int)) "requesting leaves" [ 1; 2 ]
    (Workload.requesting_leaves w ~obj:0)

let test_set_validation () =
  let t = star 3 in
  let w = Workload.empty t ~objects:1 in
  Alcotest.check_raises "non-leaf"
    (Invalid_argument "Workload.set: only processors issue requests")
    (fun () -> Workload.set_read w ~obj:0 0 1);
  Alcotest.check_raises "negative"
    (Invalid_argument "Workload.set: negative rate") (fun () ->
      Workload.set_write w ~obj:0 1 (-1))

let test_make_validation () =
  let t = star 2 in
  let zeros () = Array.make_matrix 1 3 0 in
  let bad_inner = zeros () in
  bad_inner.(0).(0) <- 1;
  (try
     ignore (Workload.make t ~reads:bad_inner ~writes:(zeros ()));
     Alcotest.fail "accepted rate on bus"
   with Invalid_argument _ -> ());
  (try
     ignore (Workload.make t ~reads:(Array.make_matrix 1 2 0) ~writes:(zeros ()));
     Alcotest.fail "accepted wrong shape"
   with Invalid_argument _ -> ());
  (try
     ignore (Workload.make t ~reads:(zeros ()) ~writes:(Array.make_matrix 2 3 0));
     Alcotest.fail "accepted object count mismatch"
   with Invalid_argument _ -> ())

let test_vectors_are_copies () =
  let t = star 2 in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 4;
  let v = Workload.read_vector w ~obj:0 in
  v.(1) <- 99;
  Alcotest.(check int) "copy" 4 (Workload.reads w ~obj:0 1);
  Workload.set_write w ~obj:0 2 3;
  let f = Workload.flat w in
  let wv = Workload.weight_vector w ~obj:0 in
  Alcotest.(check (array int)) "weight vector is the flat row"
    (Array.init (Tree.n t) (fun v -> Workload.Flat.weight f ~obj:0 v))
    wv;
  wv.(1) <- 99;
  Alcotest.(check int) "weight vector is a copy" 4 (Workload.weight w ~obj:0 1);
  Alcotest.(check int) "flat row untouched" 4
    (Workload.Flat.weight (Workload.flat w) ~obj:0 1)

let test_uniform_generator () =
  let prng = Prng.create 1 in
  let t = star 5 in
  let w = Generators.uniform ~prng t ~objects:3 ~max_rate:4 in
  Alcotest.(check int) "objects" 3 (Workload.num_objects w);
  List.iter
    (fun leaf ->
      for obj = 0 to 2 do
        let r = Workload.reads w ~obj leaf and wr = Workload.writes w ~obj leaf in
        if r < 0 || r > 4 || wr < 0 || wr > 4 then Alcotest.fail "rate range"
      done)
    (Tree.leaves t)

let test_zipf_generator () =
  let prng = Prng.create 2 in
  let t = star 4 in
  let w =
    Generators.zipf_popularity ~prng t ~objects:6 ~requests_per_leaf:20
      ~exponent:1.0 ~write_fraction:0.5
  in
  (* Every processor issued exactly requests_per_leaf requests in total. *)
  List.iter
    (fun leaf ->
      let total = ref 0 in
      for obj = 0 to 5 do
        total := !total + Workload.weight w ~obj leaf
      done;
      Alcotest.(check int) "requests per leaf" 20 !total)
    (Tree.leaves t);
  (* Zipf skew: object 0 is the most requested overall. *)
  let totals = List.init 6 (fun obj -> Workload.total_weight w ~obj) in
  Alcotest.(check bool) "skew" true
    (List.hd totals >= List.nth totals 5)

let test_hotspot_generator () =
  let prng = Prng.create 3 in
  let t = star 6 in
  let w =
    Generators.hotspot ~prng t ~objects:2 ~writers_per_object:2 ~write_rate:7
      ~read_rate:3
  in
  for obj = 0 to 1 do
    let writers =
      List.filter (fun l -> Workload.writes w ~obj l > 0) (Tree.leaves t)
    in
    Alcotest.(check int) "two writers" 2 (List.length writers);
    List.iter
      (fun l -> Alcotest.(check int) "write rate" 7 (Workload.writes w ~obj l))
      writers
  done

let test_producer_consumer () =
  let prng = Prng.create 4 in
  let t = star 5 in
  let w = Generators.producer_consumer ~prng t ~objects:3 ~consumers:2 ~rate:4 in
  for obj = 0 to 2 do
    let writers =
      List.filter (fun l -> Workload.writes w ~obj l > 0) (Tree.leaves t)
    in
    let readers =
      List.filter (fun l -> Workload.reads w ~obj l > 0) (Tree.leaves t)
    in
    Alcotest.(check int) "one producer" 1 (List.length writers);
    Alcotest.(check int) "two consumers" 2 (List.length readers);
    Alcotest.(check int) "kappa" 4 (Workload.write_contention w ~obj)
  done

let test_read_only () =
  let prng = Prng.create 5 in
  let t = star 4 in
  let w = Generators.read_only ~prng t ~objects:2 ~max_rate:5 in
  for obj = 0 to 1 do
    Alcotest.(check int) "no writes" 0 (Workload.write_contention w ~obj)
  done

let test_local_with_background () =
  let prng = Prng.create 6 in
  let t = star 5 in
  let w =
    Generators.local_with_background ~prng t ~objects:2 ~local_rate:50
      ~background_rate:2
  in
  for obj = 0 to 1 do
    let best =
      List.fold_left
        (fun acc l -> max acc (Workload.weight w ~obj l))
        0 (Tree.leaves t)
    in
    Alcotest.(check bool) "home dominates" true (best >= 100)
  done

let prop_generators_valid seed =
  (* Whatever the generator produces, re-making it through the validating
     constructor succeeds. *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let reads =
    Array.init (Workload.num_objects w) (fun obj ->
        Array.init (Tree.n t) (fun v ->
            if Tree.is_leaf t v then Workload.reads w ~obj v else 0))
  in
  let writes =
    Array.init (Workload.num_objects w) (fun obj ->
        Array.init (Tree.n t) (fun v ->
            if Tree.is_leaf t v then Workload.writes w ~obj v else 0))
  in
  ignore (Workload.make t ~reads ~writes);
  true

(* The owner is the heaviest requester; a tie goes to the lower id. *)
let test_owner_ties_to_lowest_id () =
  let t = star 4 in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 1 2;
  Workload.set_read w ~obj:0 3 1;
  Workload.set_write w ~obj:0 3 4;
  Workload.set_read w ~obj:0 4 5;
  Alcotest.(check (option int)) "tie 5 = 5 goes to 3" (Some 3)
    (Workload.owner w ~obj:0);
  Alcotest.(check (option int)) "no requests" None (Workload.owner w ~obj:1);
  Workload.set_read w ~obj:0 4 6;
  Alcotest.(check (option int)) "heavier after an update" (Some 4)
    (Workload.owner w ~obj:0)

let suite =
  [
    Helpers.tc "empty and set" test_empty_and_set;
    Helpers.tc "owner ties to the lowest id" test_owner_ties_to_lowest_id;
    Helpers.tc "set validation" test_set_validation;
    Helpers.tc "make validation" test_make_validation;
    Helpers.tc "vectors are copies" test_vectors_are_copies;
    Helpers.tc "uniform generator" test_uniform_generator;
    Helpers.tc "zipf generator" test_zipf_generator;
    Helpers.tc "hotspot generator" test_hotspot_generator;
    Helpers.tc "producer consumer" test_producer_consumer;
    Helpers.tc "read only" test_read_only;
    Helpers.tc "local with background" test_local_with_background;
    Helpers.qt "generated workloads validate" Helpers.seed_arb
      prop_generators_valid;
  ]

(* --- BSP stencil workload ---------------------------------------------- *)

let test_bsp_structure () =
  let t = Builders.star ~leaves:5 ~profile:(Builders.Uniform 2) in
  let w = Generators.bsp_neighbor_exchange t ~supersteps:3 ~neighbors:1 in
  Alcotest.(check int) "one object per processor" 5 (Workload.num_objects w);
  let leaves = Array.of_list (Tree.leaves t) in
  (* Owner writes supersteps times; the two ring neighbors read. *)
  Alcotest.(check int) "owner writes" 3 (Workload.writes w ~obj:0 leaves.(0));
  Alcotest.(check int) "right neighbor reads" 3
    (Workload.reads w ~obj:0 leaves.(1));
  Alcotest.(check int) "left neighbor reads" 3
    (Workload.reads w ~obj:0 leaves.(4));
  Alcotest.(check int) "non-neighbor silent" 0
    (Workload.reads w ~obj:0 leaves.(2));
  Alcotest.(check int) "kappa = supersteps" 3 (Workload.write_contention w ~obj:0)

let test_bsp_wide_neighbors () =
  (* neighbors >= n-1 must not double-count nor overflow the ring. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = Generators.bsp_neighbor_exchange t ~supersteps:2 ~neighbors:5 in
  let leaves = Array.of_list (Tree.leaves t) in
  (* With 3 processors and d in 1..2, each non-owner is hit once as +d and
     once as -d: 2 reads per superstep. *)
  Alcotest.(check int) "reads accumulate" 4 (Workload.reads w ~obj:0 leaves.(1))

let prop_bsp_valid seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  let w =
    Generators.bsp_neighbor_exchange t
      ~supersteps:(1 + (seed mod 5))
      ~neighbors:(seed mod 4)
  in
  Workload.num_objects w = Tree.num_leaves t
  && Workload.total_requests w > 0

let bsp_suite =
  [
    Helpers.tc "bsp stencil structure" test_bsp_structure;
    Helpers.tc "bsp wide neighbor wrap" test_bsp_wide_neighbors;
    Helpers.qt "bsp workloads valid" Helpers.seed_arb prop_bsp_valid;
  ]

let suite = suite @ bsp_suite
