module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Dist = Hbn_dist.Dist
module Prng = Hbn_prng.Prng

let test_nibble_messages_formula () =
  let _, w = Helpers.instance 55 in
  let t = Workload.tree w in
  let stats = Dist.nibble_cost t (Workload.num_objects w) in
  Alcotest.(check int) "4 sweeps of |X| (n-1) messages"
    (4 * Workload.num_objects w * (Tree.n t - 1))
    stats.Dist.messages

let test_rounds_grow_with_pipeline () =
  (* Doubling the object count adds ~|X| rounds (pipelining), not a
     multiplicative blowup. *)
  let t = Builders.balanced ~arity:2 ~height:3 ~profile:(Builders.Uniform 1) in
  let prng = Prng.create 5 in
  let w1 = Hbn_workload.Generators.uniform ~prng t ~objects:4 ~max_rate:5 in
  let w2 = Hbn_workload.Generators.uniform ~prng t ~objects:8 ~max_rate:5 in
  let s1 = Dist.nibble_cost t (Workload.num_objects w1) in
  let s2 = Dist.nibble_cost t (Workload.num_objects w2) in
  Alcotest.(check bool) "pipelined" true
    (s2.Dist.rounds - s1.Dist.rounds <= 4 * 4 + 4)

let prop_strategy_placement_matches_sequential seed =
  let _, w = Helpers.instance seed in
  let placement, _ = Dist.strategy_rounds w in
  let res = Strategy.run w in
  Placement.edge_loads w placement = Placement.edge_loads w res.Strategy.placement

let prop_rounds_bounded seed =
  (* Rounds are O(|X| + height): generous constant-checked bound. *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let _, stats = Dist.strategy_rounds w in
  let x = Workload.num_objects w and h = Tree.height t in
  stats.Dist.rounds <= (5 * (x + h)) + 10

let prop_work_bounded seed =
  (* max node work is O(|X| * degree + copies * log degree), well within
     the paper's O(|X| |V| log degree) budget. *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let _, stats = Dist.strategy_rounds w in
  let x = Workload.num_objects w in
  let d = Tree.max_degree t in
  let log_d =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
    go 0 d
  in
  stats.Dist.max_node_work <= (4 * x * d) + (x * Tree.n t * max 1 log_d)

let suite =
  [
    Helpers.tc "nibble message count formula" test_nibble_messages_formula;
    Helpers.tc "rounds pipeline over objects" test_rounds_grow_with_pipeline;
    Helpers.qt "distributed strategy = sequential" Helpers.seed_arb
      prop_strategy_placement_matches_sequential;
    Helpers.qt "round count O(|X| + height)" Helpers.seed_arb prop_rounds_bounded;
    Helpers.qt "node work within the paper bound" Helpers.seed_arb prop_work_bounded;
  ]
