module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Placement_ref = Hbn_ref.Placement_ref
module Strategy = Hbn_core.Strategy
module Sim = Hbn_sim.Sim
module Sim_ref = Hbn_ref.Sim_ref
module Prng = Hbn_prng.Prng

let test_single_packet_path () =
  (* One read over a height-2 path: dilation 2, makespan 2. *)
  let t = Builders.balanced ~arity:2 ~height:1 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  let leaves = Tree.leaves t in
  let l0 = List.nth leaves 0 and l1 = List.nth leaves 1 in
  Workload.set_read w ~obj:0 l0 1;
  let p = Placement.single w [ (0, l1) ] in
  let out = Sim.run w p in
  Alcotest.(check int) "packets" 1 out.Sim.packets;
  Alcotest.(check int) "transmissions" 2 out.Sim.transmissions;
  Alcotest.(check int) "dilation" 2 out.Sim.max_dilation;
  Alcotest.(check int) "makespan = dilation" 2 out.Sim.makespan

let test_contention_serializes () =
  (* Ten reads over the same unit edge need at least ten rounds. *)
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 100) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 10;
  let p = Placement.single w [ (0, 2) ] in
  let out = Sim.run w p in
  Alcotest.(check int) "traffic per edge" 10 out.Sim.edge_traffic.(0);
  Alcotest.(check bool) "makespan at least congestion" true
    (out.Sim.makespan >= 10)

let test_write_broadcast_waits () =
  (* A write's broadcast starts only after the request reaches the copy:
     request path length + broadcast depth chain in the dilation. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 10) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_write w ~obj:0 1 1;
  let p =
    Placement_ref.of_lists [|
      {
        Placement_ref.copies = [ 2; 3 ];
        assigns = [ { Placement_ref.leaf = 1; server = 2; reads = 0; writes = 1 } ];
      };
    |]
  in
  let out = Sim.run w p in
  (* Request: e0 up, e1 down (2 hops); broadcast from 2 over Steiner{2,3}:
     2 more hops, chained after the request. *)
  Alcotest.(check int) "transmissions" 4 out.Sim.transmissions;
  Alcotest.(check int) "dilation includes the wait" 4 out.Sim.max_dilation

let test_bus_capacity_limits () =
  (* Two packets on different edges through the same bandwidth-1 bus
     cannot both cross in one round: bus capacity 2*b = 2 endpoints
     per... each crossing uses 2 endpoint slots, so one crossing/round. *)
  let t =
    Tree.make
      ~kinds:[| Tree.Bus; Tree.Processor; Tree.Processor; Tree.Processor; Tree.Processor |]
      ~edges:[ (0, 1, 5); (0, 2, 5); (0, 3, 5); (0, 4, 5) ]
      ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 1 2;
  Workload.set_read w ~obj:1 3 1;
  let p = Placement.single w [ (0, 2); (1, 4) ] in
  let out = Sim.run w p in
  (* Six edge hops, each consuming one of the bus's 2 slots per round:
     at least three rounds, even though every edge has spare bandwidth. *)
  Alcotest.(check int) "hops" 6 out.Sim.transmissions;
  Alcotest.(check bool) "bus limits crossings" true (out.Sim.makespan >= 3)

let test_scale_reduces_packets () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 100;
  let p = Placement.single w [ (0, 2) ] in
  let full = Sim.run w p in
  let scaled = Sim.run ~scale:10 w p in
  Alcotest.(check int) "full packets" 100 full.Sim.packets;
  Alcotest.(check int) "scaled packets" 10 scaled.Sim.packets

let test_deterministic () =
  let _, w = Helpers.instance 1234 in
  let res = Strategy.run w in
  let a = Sim.run w res.Strategy.placement in
  let b = Sim.run w res.Strategy.placement in
  Alcotest.(check int) "same makespan" a.Sim.makespan b.Sim.makespan;
  Alcotest.(check (array int)) "same traffic" a.Sim.edge_traffic b.Sim.edge_traffic

let prop_traffic_equals_analytic_loads seed =
  (* The simulator's per-edge traffic at scale 1 equals the evaluator's
     loads — the two load accountings agree exactly. *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let out = Sim.run w res.Strategy.placement in
  out.Sim.edge_traffic = Placement.edge_loads w res.Strategy.placement

let prop_traffic_matches_for_baselines seed =
  let _, w = Helpers.instance seed in
  let p = Hbn_baselines.Baselines.full_replication w in
  let out = Sim.run w p in
  out.Sim.edge_traffic = Placement.edge_loads w p

let prop_makespan_at_least_lower_bound seed =
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let out = Sim.run ~scale:4 w res.Strategy.placement in
  float_of_int out.Sim.makespan
  >= Sim.lower_bound w res.Strategy.placement out -. 1e-9

let prop_makespan_at_most_transmissions seed =
  (* Work conservation: at least one hop per round. *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let out = Sim.run ~scale:4 w res.Strategy.placement in
  out.Sim.transmissions = 0 || out.Sim.makespan <= out.Sim.transmissions

let suite =
  [
    Helpers.tc "single packet path" test_single_packet_path;
    Helpers.tc "contention serializes" test_contention_serializes;
    Helpers.tc "write broadcast waits for the request" test_write_broadcast_waits;
    Helpers.tc "bus capacity limits crossings" test_bus_capacity_limits;
    Helpers.tc "scale reduces packets" test_scale_reduces_packets;
    Helpers.tc "deterministic" test_deterministic;
    Helpers.qt ~count:100 "sim traffic equals analytic loads" Helpers.seed_arb
      prop_traffic_equals_analytic_loads;
    Helpers.qt ~count:30 "sim traffic matches full replication" Helpers.seed_arb
      prop_traffic_matches_for_baselines;
    Helpers.qt ~count:25 "makespan above lower bound" Helpers.seed_arb
      prop_makespan_at_least_lower_bound;
    Helpers.qt ~count:25 "makespan below total transmissions" Helpers.seed_arb
      prop_makespan_at_most_transmissions;
  ]

(* --- scheduling policies ------------------------------------------------ *)

(* [Sim.run] serves FIFO only; the round-robin and newest-first orders
   run in the reference scan. *)
let all_policies = List.map snd Sim_fingerprint.policies
let run_policy = Sim_fingerprint.run_policy

let prop_policies_conserve_traffic seed =
  (* Any service order injects the same packets and delivers exactly the
     same hops — scheduling only reorders work, it never creates or
     drops any. *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let p = res.Strategy.placement in
  let fifo = Sim.run ~scale:4 w p in
  let rr = Sim_ref.run ~scale:4 ~policy:Sim_ref.Round_robin w p in
  let rev = Sim_ref.run ~scale:4 ~policy:Sim_ref.Reversed w p in
  fifo.Sim.edge_traffic = rr.Sim.edge_traffic
  && fifo.Sim.edge_traffic = rev.Sim.edge_traffic
  && fifo.Sim.packets = rr.Sim.packets
  && fifo.Sim.packets = rev.Sim.packets
  && fifo.Sim.transmissions = rr.Sim.transmissions
  && fifo.Sim.transmissions = rev.Sim.transmissions

let prop_policies_respect_lower_bound seed =
  (* On randomized topologies every policy's makespan sits between the
     congestion/dilation lower bound and the serial upper bound (work
     conservation: at least one hop per round). *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let p = res.Strategy.placement in
  List.for_all
    (fun policy ->
      let out = run_policy policy ~scale:4 w p in
      float_of_int out.Sim.makespan >= Sim.lower_bound w p out -. 1e-9
      && (out.Sim.transmissions = 0
         || out.Sim.makespan <= out.Sim.transmissions))
    all_policies

let policy_suite =
  [
    Helpers.qt ~count:25 "policies deliver identical traffic" Helpers.seed_arb
      prop_policies_conserve_traffic;
    Helpers.qt ~count:25 "policies respect the lower bound" Helpers.seed_arb
      prop_policies_respect_lower_bound;
  ]

(* --- asynchrony --------------------------------------------------------- *)

module Link = Hbn_event.Link
module Telemetry = Hbn_obs.Telemetry

(* Pins the paper-derived constant in the bus cap (see sim.mli): the bus
   load L(B) divides by 2·b(B) because a crossing occupies two incident
   edges, so a bandwidth-1 bus must sustain one full crossing — two
   packet-hops — per round. Ten packets through one bus are 20 hops and
   finish in exactly 20 / (2·1) = 10 rounds, packet k entering while
   packet k-1 leaves. A 1·b(B) cap would serialize the hops and double
   the time. *)
let test_bus_cap_pipelining () =
  let t =
    Tree.make
      ~kinds:[| Tree.Bus; Tree.Processor; Tree.Processor |]
      ~edges:[ (0, 1, 5); (0, 2, 5) ]
      ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 10;
  let p = Placement.single w [ (0, 2) ] in
  let out = Sim.run w p in
  Alcotest.(check int) "hops" 20 out.Sim.transmissions;
  Alcotest.(check int) "full pipelining: hops / (2·b) rounds" 10
    out.Sim.makespan

(* The sync-equivalence half of the acceptance criterion at the Sim
   layer: Link.sync (delay 1, infinite bandwidth) must reproduce the
   synchronous engine bit for bit — outcome and telemetry series. *)
let prop_sync_link_bit_identical seed =
  let _, w = Helpers.instance seed in
  let tree = Workload.tree w in
  let p = (Strategy.run w).Strategy.placement in
  let t1 = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let t2 = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let a = Sim.run ~scale:4 ~telemetry:t1 w p in
  let b = Sim.run ~scale:4 ~telemetry:t2 ~link:Link.sync w p in
  a = b && Telemetry.points t1 = Telemetry.points t2

(* The congestion-invariance half: a slower link reorders and delays the
   schedule but the traffic is a function of workload and placement
   alone; completion strictly rises because every hop's transit is 3
   instead of 1 and bandwidth 1 never exceeds any synchronous cap. *)
let prop_slow_link_preserves_traffic seed =
  let _, w = Helpers.instance seed in
  let p = (Strategy.run w).Strategy.placement in
  let a = Sim.run ~scale:4 w p in
  let b = Sim.run ~scale:4 ~link:(Link.v [| (2., 1.) |]) w p in
  a.Sim.packets = b.Sim.packets
  && a.Sim.transmissions = b.Sim.transmissions
  && a.Sim.edge_traffic = b.Sim.edge_traffic
  && a.Sim.max_dilation = b.Sim.max_dilation
  && (a.Sim.transmissions = 0 || b.Sim.completion > a.Sim.completion)

(* Same traffic, opposite bandwidth profiles, different completions: the
   controlled experiment BENCH_async.json records, in miniature. *)
let test_asymmetry_moves_completion () =
  let prng = Prng.create 20260808 in
  let t = Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2) in
  let w = Hbn_workload.Generators.uniform ~prng t ~objects:8 ~max_rate:6 in
  let p = (Strategy.run w).Strategy.placement in
  let run spec =
    match Link.of_spec spec with
    | Ok c -> Sim.run ~scale:2 ~link:c w p
    | Error e -> Alcotest.failf "of_spec %S: %s" spec e
  in
  let top_slow = run "1:1,1:8" and bottom_slow = run "1:8,1:1" in
  Alcotest.(check (array int))
    "traffic pinned" top_slow.Sim.edge_traffic bottom_slow.Sim.edge_traffic;
  Alcotest.(check bool) "completion differs" true
    (top_slow.Sim.completion <> bottom_slow.Sim.completion)

(* Link latencies far from one tick. Pending ticks are keyed by time, so
   a long delay costs no memory and one above max_int still runs; a
   latency that rounds away, or a clock past 2^53 where [now +. 1.] is
   [now], still books the next whole time after the grant. The 1e7, Fifo
   "0:1e30" and 1e19 values were recorded with the list scheduler; the
   other makespans with the heap-driven tick loop, the first scheduler
   to complete those runs. *)
let test_extreme_latencies () =
  let policies = all_policies in
  let prng = Prng.create 20260808 in
  let t = Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2) in
  let w = Hbn_workload.Generators.uniform ~prng t ~objects:8 ~max_rate:6 in
  let p = (Strategy.run w).Strategy.placement in
  let run policy spec =
    let link = Result.get_ok (Link.of_spec spec) in
    let out = run_policy policy ~scale:2 ~link w p in
    Alcotest.(check int) (spec ^ ": transmissions") 4496 out.Sim.transmissions;
    out
  in
  List.iter2
    (fun policy (makespan, completion) ->
      let out = run policy "1e7:inf" in
      Alcotest.(check int) "1e7: makespan" makespan out.Sim.makespan;
      Alcotest.(check (float 0.)) "1e7: completion" completion out.Sim.completion)
    policies
    [ (1047, 120000120.); (992, 120000114.); (1014, 120000115.) ];
  let out = run Sim_ref.Fifo "0:1e30" in
  Alcotest.(check int) "1e-30: makespan" 375 out.Sim.makespan;
  Alcotest.(check (float 0.)) "1e-30: completion" 375. out.Sim.completion;
  List.iter
    (fun (policy, spec, makespan) ->
      Alcotest.(check int) (spec ^ ": makespan") makespan
        (run policy spec).Sim.makespan)
    [
      (Sim_ref.Round_robin, "0:1e30", 347);
      (Sim_ref.Reversed, "0:1e30", 320);
      (Sim_ref.Round_robin, "1e-20:inf", 327);
      (Sim_ref.Reversed, "1e-20:inf", 316);
      (Sim_ref.Fifo, "1e16:inf", 773);
      (Sim_ref.Round_robin, "1e16:inf", 681);
      (Sim_ref.Reversed, "1e16:inf", 694);
    ];
  (* A write through a star: request up and down, then a two-hop
     broadcast, each hop 1e19 after the last. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 10) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_write w ~obj:0 1 1;
  let p =
    Placement_ref.of_lists [|
      {
        Placement_ref.copies = [ 2; 3 ];
        assigns = [ { Placement_ref.leaf = 1; server = 2; reads = 0; writes = 1 } ];
      };
    |]
  in
  let link = Result.get_ok (Link.of_spec "1e19:inf") in
  List.iter
    (fun policy ->
      let out = run_policy policy ~link w p in
      Alcotest.(check int) "1e19: makespan" 4 out.Sim.makespan;
      Alcotest.(check (float 0.)) "1e19: completion" 4e19 out.Sim.completion)
    policies

let async_suite =
  [
    Helpers.tc "link latencies far from one tick" test_extreme_latencies;
    Helpers.tc "bus capacity: the 2·b(B) cap permits full pipelining"
      test_bus_cap_pipelining;
    Helpers.qt ~count:60 "Link.sync is bit-identical to the synchronous engine"
      Helpers.seed_arb prop_sync_link_bit_identical;
    Helpers.qt ~count:40 "slow links preserve traffic, raise completion"
      Helpers.seed_arb prop_slow_link_preserves_traffic;
    Helpers.tc "bandwidth asymmetry moves completion only"
      test_asymmetry_moves_completion;
  ]

(* --- pinned fingerprints --------------------------------------------- *)

(* The simulator against the table recorded in fixtures/: on a mismatch
   the fresh table is written to sim_fingerprints.fresh in the test's
   working directory, ready to diff (or to commit, after an intended
   schedule change). *)
let test_fingerprints_pinned () =
  let pinned = In_channel.with_open_text "fixtures/sim_fingerprints.txt" In_channel.input_all in
  let pinned = String.split_on_char '\n' (String.trim pinned) in
  let fresh = Sim_fingerprint.table () in
  if fresh <> pinned then begin
    Out_channel.with_open_text "sim_fingerprints.fresh" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) fresh);
    let rec first_diff = function
      | a :: ra, b :: rb -> if a = b then first_diff (ra, rb) else (a, b)
      | a :: _, [] -> (a, "<missing>")
      | [], b :: _ -> ("<missing>", b)
      | [], [] -> ("", "")
    in
    let want, got = first_diff (pinned, fresh) in
    Alcotest.failf "fingerprint diverged:\n  pinned %s\n  fresh  %s" want got
  end

let fingerprint_suite =
  [ Helpers.tc "fingerprints match the pinned table" test_fingerprints_pinned ]

(* --- empty traffic ------------------------------------------------------ *)

(* A workload without requests injects no hop: the scheduler never ticks,
   and every outcome field is zero. *)
let check_idle name (out : Sim.outcome) =
  Alcotest.(check int) (name ^ ": makespan") 0 out.Sim.makespan;
  Alcotest.(check (float 0.)) (name ^ ": completion") 0. out.Sim.completion;
  Alcotest.(check int) (name ^ ": packets") 0 out.Sim.packets;
  Alcotest.(check int) (name ^ ": transmissions") 0 out.Sim.transmissions;
  Alcotest.(check int) (name ^ ": dilation") 0 out.Sim.max_dilation;
  Alcotest.(check bool)
    (name ^ ": no traffic") true
    (Array.for_all (( = ) 0) out.Sim.edge_traffic)

let test_no_requests () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:2 in
  let leaves = Tree.leaves t in
  let p = Placement.single w [ (0, List.hd leaves); (1, List.nth leaves 2) ] in
  List.iter
    (fun policy -> check_idle "balanced" (run_policy policy w p))
    all_policies

(* The smallest networks Tree.make accepts: a bus needs two neighbours,
   so two nodes are two processors joined by one edge, and one node is a
   lone processor with no edge at all. *)
let test_no_requests_tiny_networks () =
  let two =
    Tree.make
      ~kinds:[| Tree.Processor; Tree.Processor |]
      ~edges:[ (0, 1, 1) ]
      ~bus_bandwidth:(fun _ -> 1)
      ()
  in
  let one =
    Tree.make ~kinds:[| Tree.Processor |] ~edges:[] ~bus_bandwidth:(fun _ -> 1) ()
  in
  List.iter
    (fun (tname, t) ->
      let w = Workload.empty t ~objects:1 in
      let p = Placement.single w [ (0, 0) ] in
      check_idle (tname ^ " sync") (Sim.run ~link:Link.sync w p);
      check_idle (tname ^ " 1:1")
        (Sim.run ~link:(Result.get_ok (Link.of_spec "1:1")) w p))
    [ ("two nodes", two); ("one node", one) ]

let empty_suite =
  [
    Helpers.tc "no requests: zero outcome" test_no_requests;
    Helpers.tc "no requests on one- and two-node networks"
      test_no_requests_tiny_networks;
  ]

(* --- the per-edge merge against the whole-queue scan -------------------- *)

(* One run of [Sim.run] and of the FIFO oracle: outcome, telemetry
   points and the digest of the per-tick gauges must all be equal. *)
let same_as_oracle ?scale ?link w p =
  let m = Tree.num_edges (Workload.tree w) in
  let t1 = Telemetry.create ~num_edges:m () in
  let t2 = Telemetry.create ~num_edges:m () in
  let a, ga =
    Sim_fingerprint.with_gauge_digest (fun () ->
        Sim.run ?scale ?link ~telemetry:t1 w p)
  in
  let b, gb =
    Sim_fingerprint.with_gauge_digest (fun () ->
        Sim_ref.run ?scale ?link ~telemetry:t2 w p)
  in
  a = b && Telemetry.points t1 = Telemetry.points t2 && ga = gb

let oracle_links =
  None
  :: List.map
       (fun spec -> Some (Result.get_ok (Link.of_spec spec)))
       [ "1:4,1:1"; "0.25:2,0.5:0.5"; "1e16:inf" ]

(* A star of unit bandwidth: its one bus admits 2 packet-hops a tick, so
   it refuses the head of every other waiting edge, tick after tick. *)
let capped_star seed =
  let prng = Prng.create (seed + 2027) in
  let t =
    Builders.star ~leaves:(Prng.int_in prng 8 48) ~profile:(Builders.Uniform 1)
  in
  let w = Helpers.random_workload prng t in
  (w, Sim_fingerprint.random_copies prng w)

(* Every leaf writes one object with a copy in each subtree of the root.
   A write's broadcast is released when its request reaches its server,
   and requests from leaves far apart in hop order reach their servers
   in the same tick, so a tick releases hops out of index order. *)
let many_writers seed =
  let prng = Prng.create (seed + 3037) in
  let t =
    Builders.balanced ~arity:4 ~height:2 ~profile:(Helpers.profile_of prng)
  in
  let w = Workload.empty t ~objects:1 in
  List.iter
    (fun leaf -> Workload.set_write w ~obj:0 leaf (Prng.int_in prng 1 3))
    (Tree.leaves t);
  let r = Tree.rooting t in
  let copy bus =
    let below = r.Tree.children.(bus) in
    let k = Prng.int prng (Array.length below + 1) in
    if k = 0 then bus else below.(k - 1)
  in
  (w, [| Array.to_list (Array.map copy r.Tree.children.(r.Tree.root)) |])

(* Random copy sets (buses included) on the oracle shapes: random trees,
   stars and long caterpillars, a bus-capped star and many writers to
   one object, every link and scale. *)
let prop_matches_scan_oracle seed =
  let shaped =
    let _, w = Helpers.shaped_instance seed in
    (w, Sim_fingerprint.random_copies (Prng.create (seed + 1009)) w)
  in
  List.for_all
    (fun (w, copies) ->
      let p = Placement.nearest w ~copies in
      List.for_all
        (fun link ->
          List.for_all (fun scale -> same_as_oracle ~scale ?link w p) [ 1; 2 ])
        oracle_links)
    [ shaped; capped_star seed; many_writers seed ]

(* A shape well beyond the bench sizes: 1,365 nodes, where thousands of
   hops wait per tick. *)
let test_large_tree_matches_oracle () =
  let prng = Prng.create 20261019 in
  let t = Builders.balanced ~arity:4 ~height:5 ~profile:(Builders.Uniform 1) in
  let w = Hbn_workload.Generators.uniform ~prng t ~objects:8 ~max_rate:1 in
  let p = (Strategy.run w).Strategy.placement in
  let out = Sim.run w p in
  Alcotest.(check bool) "same as the whole-queue scan" true (out = Sim_ref.run w p);
  Alcotest.(check (array int))
    "traffic = analytic loads" (Placement.edge_loads w p) out.Sim.edge_traffic;
  Alcotest.(check bool) "makespan above lower bound" true
    (float_of_int out.Sim.makespan >= Sim.lower_bound w p out -. 1e-9)

let oracle_suite =
  [
    Helpers.qt ~count:25 "per-edge merge = whole-queue scan (fifo)"
      Helpers.seed_arb prop_matches_scan_oracle;
    Helpers.slow "1,365-node tree: merge = scan, traffic = loads"
      test_large_tree_matches_oracle;
  ]

let suite =
  suite @ policy_suite @ async_suite @ fingerprint_suite @ empty_suite
  @ oracle_suite
