module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Certificates = Hbn_core.Certificates
module Copy = Hbn_core.Copy
module Brute_force = Hbn_exact.Brute_force
module Lower_bounds = Hbn_exact.Lower_bounds
module Prng = Hbn_prng.Prng

let test_empty_workload () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:2 in
  let res = Strategy.run w in
  Helpers.check_ok "certificates" (Certificates.check_all w res);
  Alcotest.(check (float 0.)) "zero congestion" 0.
    (Placement.congestion w res.Strategy.placement);
  Alcotest.(check (list int)) "no copies anywhere" []
    (Placement.copies res.Strategy.placement ~obj:0)

let test_read_only_objects_free () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  List.iter (fun l -> Workload.set_read w ~obj:0 l 9) (Tree.leaves t);
  let res = Strategy.run w in
  Helpers.check_ok "certificates" (Certificates.check_all w res);
  Alcotest.(check (float 0.)) "reads served locally" 0.
    (Placement.congestion w res.Strategy.placement);
  Alcotest.(check (list int)) "copy on every reader" (Tree.leaves t)
    (Placement.copies res.Strategy.placement ~obj:0)

let test_single_writer () =
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_write w ~obj:0 1 10;
  let res = Strategy.run w in
  Helpers.check_ok "certificates" (Certificates.check_all w res);
  (* The lone writer keeps its object local: zero congestion. *)
  Alcotest.(check (float 0.)) "local writes" 0.
    (Placement.congestion w res.Strategy.placement);
  Alcotest.(check (list int)) "single copy at the writer" [ 1 ]
    (Placement.copies res.Strategy.placement ~obj:0)

let test_deterministic () =
  let mk () =
    let _, w = Helpers.instance 9001 in
    let res = Strategy.run w in
    (Placement.edge_loads w res.Strategy.placement, res.Strategy.tau_max)
  in
  Alcotest.(check bool) "two runs agree" true (mk () = mk ())

let test_gadget_within_7 () =
  (* End-to-end on the NP-hardness gadget: the strategy stays within 7x of
     the closed-form optimum on both yes and no instances. *)
  List.iter
    (fun items ->
      let inst = Hbn_workload.Partition.make items in
      let g = Hbn_workload.Partition.gadget inst in
      let w = g.Hbn_workload.Partition.workload in
      let res = Strategy.run ~on_mapping_round:Helpers.check_mapping_round w in
      Helpers.check_ok "certificates" (Certificates.check_all w res);
      let opt = float_of_int (Hbn_exact.Gadget_opt.family_optimum inst) in
      Helpers.check_ok "theorem 4.3"
        (Certificates.check_theorem_4_3 w res ~optimum:opt))
    [ [ 1; 1 ]; [ 3; 1; 1; 2; 3; 2 ]; [ 1; 1; 4 ]; [ 5; 5; 3; 3; 2; 2 ] ]

let prop_certificates_hold seed =
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  match Certificates.check_all w res with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg

let prop_certificates_hold_literal_variant seed =
  (* The move_leaf_copies=true variant (paper's Figure 5 verbatim) also
     satisfies every certificate. *)
  let _, w = Helpers.instance seed in
  let res =
    Strategy.run ~move_leaf_copies:true
      ~on_mapping_round:Helpers.check_mapping_round w
  in
  match Certificates.check_all w res with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg

let prop_seven_approximation seed =
  (* Theorem 4.3 against the true brute-force optimum. *)
  let _, w = Helpers.small_instance seed in
  let res = Strategy.run w in
  let c = Placement.congestion w res.Strategy.placement in
  match Brute_force.optimum w ~candidates:`Leaves ~upper_bound:c with
  | opt -> c <= (7. *. opt.Brute_force.congestion) +. 1e-9
  | exception Brute_force.Too_large _ -> QCheck.assume_fail ()

let prop_seven_approximation_literal seed =
  let _, w = Helpers.small_instance seed in
  let res = Strategy.run ~move_leaf_copies:true w in
  let c = Placement.congestion w res.Strategy.placement in
  match Brute_force.optimum w ~candidates:`Leaves ~upper_bound:c with
  | opt -> c <= (7. *. opt.Brute_force.congestion) +. 1e-9
  | exception Brute_force.Too_large _ -> QCheck.assume_fail ()

let prop_tau_max_bounded seed =
  (* tau_max <= 3 * max kappa over mapped objects (Observation 3.2 gives
     s <= 2 kappa, so s + kappa <= 3 kappa). *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let max_kappa =
    List.fold_left
      (fun acc obj -> max acc (Workload.write_contention w ~obj))
      0 res.Strategy.mapped_objects
  in
  res.Strategy.tau_max <= 3 * max_kappa

let prop_lower_bound_sanity seed =
  (* Our reported LB never exceeds the congestion of any placement the
     strategy produces (LB <= OPT <= C). *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let c = Placement.congestion w res.Strategy.placement in
  Lower_bounds.combined w <= c +. 1e-9

let prop_lower_bound_vs_optimum seed =
  (* And on solvable sizes the LB really is below the optimum. *)
  let _, w = Helpers.small_instance seed in
  match Brute_force.optimum w ~candidates:`Leaves with
  | opt -> Lower_bounds.combined w <= opt.Brute_force.congestion +. 1e-9
  | exception Brute_force.Too_large _ -> QCheck.assume_fail ()

let prop_final_strict_after_collapse seed =
  (* to_strict of the final placement still covers the workload. *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let strict = Hbn_ref.Placement_ref.to_strict res.Strategy.placement in
  Hbn_ref.Placement_ref.is_strict strict && Placement.validate w strict = Ok ()

let prop_copies_consistent_with_placement seed =
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  (* Every copy node appears in its object's final copy list. *)
  List.for_all
    (fun c ->
      List.mem c.Copy.node
        (Placement.copies res.Strategy.placement ~obj:c.Copy.obj))
    res.Strategy.copies

let prop_stable_under_all_topologies seed =
  (* Specifically exercise the ring-of-rings topologies of Figure 1/2. *)
  let prng = Prng.create (seed + 31337) in
  let t =
    Builders.of_ring
      (Builders.sample_ring_of_rings ~prng ~depth:3 ~fanout:2 ~procs_per_ring:2)
  in
  let w = Helpers.random_workload prng t in
  let res = Strategy.run ~on_mapping_round:Helpers.check_mapping_round w in
  Certificates.check_all w res = Ok ()

(* The on-demand Step 1 and Step 2 placements, the copy sets and every
   Step 2 copy (id, origin, groups in order, served count) against the
   eager per-node construction. *)
let prop_on_demand_matches_eager seed =
  let _, w = Helpers.shaped_instance seed in
  let res = Strategy.run w in
  let eager = Strategy_ref.steps w in
  let fields node c =
    (c.Copy.id, c.Copy.obj, c.Copy.kappa, node c, c.Copy.groups, c.Copy.served)
  in
  res.Strategy.nibble_sets = eager.Strategy_ref.sets
  && Strategy.nibble_placement w res = eager.Strategy_ref.nibble
  && Strategy.modified_placement w res = eager.Strategy_ref.modified
  && res.Strategy.deletions = eager.Strategy_ref.deletions
  && res.Strategy.splits = eager.Strategy_ref.splits
  && List.map (fields (fun c -> c.Copy.origin)) res.Strategy.copies
     = List.map (fields (fun c -> c.Copy.node)) eager.Strategy_ref.copies

(* The flat final placement against the list builder over the run's own
   Step 2 copies at their final positions. *)
let prop_final_placement_matches_list_builder seed =
  let _, w = Helpers.shaped_instance seed in
  let res = Strategy.run w in
  res.Strategy.placement
  = Hbn_ref.Placement_ref.of_stages w ~node:(fun c -> c.Copy.node)
      (Hbn_ref.Placement_ref.stages_of_copies w res.Strategy.copies)

(* Many objects on a wide tree: 1,024 Zipf objects on the 5,461-node
   balanced tree of arity 4 and height 6, four times the benchmark's
   object count on a tree four times as wide, end to end. *)
let test_many_objects_wide_tree () =
  let tree = Builders.balanced ~arity:4 ~height:6 ~profile:(Builders.Uniform 2) in
  let prng = Prng.create 1 in
  let w =
    Hbn_workload.Generators.zipf_popularity ~prng tree ~objects:1024
      ~requests_per_leaf:4 ~exponent:1.1 ~write_fraction:0.1
  in
  let res = Strategy.run w in
  Helpers.check_ok "validate" (Placement.validate w res.Strategy.placement);
  Helpers.check_ok "certificates" (Certificates.check_all w res)

let suite =
  [
    Helpers.tc "empty workload" test_empty_workload;
    Helpers.tc "read-only objects are free" test_read_only_objects_free;
    Helpers.tc "single writer stays local" test_single_writer;
    Helpers.tc "deterministic" test_deterministic;
    Helpers.tc "NP gadget within 7x of optimum" test_gadget_within_7;
    Helpers.qt ~count:200 "all certificates hold" Helpers.seed_arb prop_certificates_hold;
    Helpers.qt ~count:100 "certificates hold for literal variant" Helpers.seed_arb
      prop_certificates_hold_literal_variant;
    Helpers.qt ~count:120 "7-approximation vs brute force (Thm 4.3)"
      Helpers.seed_arb prop_seven_approximation;
    Helpers.qt ~count:25 "7-approximation, literal variant" Helpers.seed_arb
      prop_seven_approximation_literal;
    Helpers.qt "tau_max <= 3 max kappa" Helpers.seed_arb prop_tau_max_bounded;
    Helpers.qt "lower bound below strategy congestion" Helpers.seed_arb
      prop_lower_bound_sanity;
    Helpers.qt ~count:30 "lower bound below optimum" Helpers.seed_arb
      prop_lower_bound_vs_optimum;
    Helpers.qt "final placement collapses to strict" Helpers.seed_arb
      prop_final_strict_after_collapse;
    Helpers.qt "result copies consistent with placement" Helpers.seed_arb
      prop_copies_consistent_with_placement;
    Helpers.qt ~count:30 "ring-of-rings topologies" Helpers.seed_arb
      prop_stable_under_all_topologies;
    Helpers.qt ~count:150 "on-demand placements match eager construction"
      Helpers.seed_arb prop_on_demand_matches_eager;
    Helpers.qt "final placement = list builder" Helpers.seed_arb
      prop_final_placement_matches_list_builder;
    Helpers.tc "1,024 objects on a 5,461-node tree" test_many_objects_wide_tree;
  ]

(* --- additional structural properties ---------------------------------- *)

let scale_workload w k =
  let t = Workload.tree w in
  let w' = Workload.empty t ~objects:(Workload.num_objects w) in
  List.iter
    (fun v ->
      for obj = 0 to Workload.num_objects w - 1 do
        Workload.set_read w' ~obj v (k * Workload.reads w ~obj v);
        Workload.set_write w' ~obj v (k * Workload.writes w ~obj v)
      done)
    (Tree.leaves t);
  w'

let prop_nibble_scale_invariance seed =
  (* Multiplying every frequency by k scales the nibble loads by exactly
     k: Step 1's decisions (gravity center, subtree-weight rule) depend
     only on frequency ratios. The full strategy is only approximately
     scale-invariant — Step 2's near-equal clone bucketing rounds
     differently at different scales — so the exact statement holds for
     the nibble placement and the certificates re-assert the bounds on
     the scaled instance. *)
  let _, w = Helpers.instance seed in
  let k = 2 + (seed mod 3) in
  let w' = scale_workload w k in
  let loads = Hbn_nibble.Nibble.edge_loads w in
  let loads' = Hbn_nibble.Nibble.edge_loads w' in
  Array.for_all2 (fun a b -> k * a = b) loads loads'

let prop_scaled_instance_still_certified seed =
  let _, w = Helpers.instance seed in
  let w' = scale_workload w (2 + (seed mod 3)) in
  let res = Strategy.run ~on_mapping_round:Helpers.check_mapping_round w' in
  match Certificates.check_all w' res with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg

let prop_single_processor_network seed =
  (* Degenerate network: one processor, no buses. Everything is local. *)
  let t =
    Tree.make ~kinds:[| Tree.Processor |] ~edges:[] ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 0 (1 + (seed mod 9));
  Workload.set_write w ~obj:1 0 (1 + (seed mod 5));
  let res = Strategy.run ~on_mapping_round:Helpers.check_mapping_round w in
  Certificates.check_all w res = Ok ()
  && Placement.congestion w res.Strategy.placement = 0.

let prop_two_processors seed =
  (* Smallest nontrivial bus network: one bus, two processors. *)
  let prng = Prng.create seed in
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform (Prng.int_in prng 1 3)) in
  let w = Workload.empty t ~objects:2 in
  List.iter
    (fun leaf ->
      Workload.set_read w ~obj:0 leaf (Prng.int prng 6);
      Workload.set_write w ~obj:0 leaf (Prng.int prng 6);
      Workload.set_write w ~obj:1 leaf (Prng.int prng 6))
    (Tree.leaves t);
  let res = Strategy.run ~on_mapping_round:Helpers.check_mapping_round w in
  (match Certificates.check_all w res with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg)
  &&
  match Brute_force.optimum w ~candidates:`Leaves with
  | opt ->
    Placement.congestion w res.Strategy.placement
    <= (7. *. opt.Brute_force.congestion) +. 1e-9
  | exception Brute_force.Too_large _ -> true

let extra_suite =
  [
    Helpers.qt ~count:30 "frequency scaling scales nibble loads exactly"
      Helpers.seed_arb prop_nibble_scale_invariance;
    Helpers.qt ~count:30 "scaled instances stay certified" Helpers.seed_arb
      prop_scaled_instance_still_certified;
    Helpers.qt ~count:20 "single-processor network" Helpers.seed_arb
      prop_single_processor_network;
    Helpers.qt ~count:40 "two-processor bus network" Helpers.seed_arb
      prop_two_processors;
  ]

let suite = suite @ extra_suite
