module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble
module Runtime = Hbn_dist.Runtime
module Dist_nibble = Hbn_dist.Dist_nibble
module Prng = Hbn_prng.Prng

(* A trivial protocol: leaves send 1 up, inner nodes forward sums; the
   root ends up with the leaf count. *)
let test_engine_convergecast () =
  let t = Builders.balanced ~arity:2 ~height:3 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let init v = (Array.length r.Tree.children.(v), 0, false) in
  let step ~round ~node (missing, acc, sent) ~inbox =
    let missing = missing - List.length inbox in
    let acc = List.fold_left (fun a (_, m) -> a + m) acc inbox in
    if missing = 0 && not sent then
      if node = r.Tree.root then ((missing, acc, true), [])
      else ((missing, acc, true), [ (r.Tree.parent.(node), acc + if Tree.is_leaf t node then 1 else 0) ])
    else begin
      ignore round;
      ((missing, acc, sent), [])
    end
  in
  let out = Runtime.run t ~init ~step in
  let _, root_acc, _ = out.Runtime.states.(r.Tree.root) in
  Alcotest.(check int) "root counted the leaves" (Tree.num_leaves t) root_acc;
  Alcotest.(check int) "one message per non-root node" (Tree.n t - 1)
    out.Runtime.stats.Runtime.messages;
  Alcotest.(check bool) "rounds ~ height" true
    (out.Runtime.stats.Runtime.rounds >= Tree.height t);
  Alcotest.(check bool) "quiescent" true
    (out.Runtime.termination = Runtime.Quiescent);
  Alcotest.(check int) "no faults without a plan" 0
    (List.length out.Runtime.faults)

let test_engine_rejects_non_neighbor () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  (try
     ignore
       (Runtime.run t ~init:(fun _ -> ()) ~step:(fun ~round ~node () ~inbox ->
            ignore inbox;
            if round = 1 && node = 1 then ((), [ (2, "hi") ]) else ((), [])));
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let test_engine_rejects_double_send () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  (try
     ignore
       (Runtime.run t ~init:(fun _ -> ()) ~step:(fun ~round ~node () ~inbox ->
            ignore inbox;
            if round = 1 && node = 1 then ((), [ (0, "a"); (0, "b") ])
            else ((), [])));
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let test_engine_round_limit () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  (* Node 1 talks forever: the engine must stop at the budget and report
     it as a structured outcome, not raise. *)
  let out =
    Runtime.run ~max_rounds:50 t ~init:(fun _ -> ())
      ~step:(fun ~round:_ ~node () ~inbox ->
        ignore inbox;
        if node = 1 then ((), [ (0, ()) ]) else ((), []))
  in
  Alcotest.(check bool) "round limit reported" true
    (out.Runtime.termination = Runtime.Round_limit);
  Alcotest.(check int) "stats survive" 50 out.Runtime.stats.Runtime.rounds

let test_dist_nibble_hand_example () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 1 10;
  Workload.set_write w ~obj:0 2 2;
  (* object 1 unused *)
  let sets, stats = Dist_nibble.run w in
  let seq = Nibble.place_all w in
  Alcotest.(check (list int)) "object 0 matches sequential"
    seq.(0).Nibble.nodes sets.(0);
  Alcotest.(check (list int)) "unused object empty" [] sets.(1);
  Alcotest.(check bool) "some messages flowed" true (stats.Runtime.messages > 0)

let test_single_node_network () =
  let t =
    Tree.make ~kinds:[| Tree.Processor |] ~edges:[] ~bus_bandwidth:(fun _ -> 1) ()
  in
  let w = Workload.empty t ~objects:2 in
  Workload.set_write w ~obj:0 0 5;
  let sets, stats = Dist_nibble.run w in
  Alcotest.(check (list int)) "self copy" [ 0 ] sets.(0);
  Alcotest.(check (list int)) "unused empty" [] sets.(1);
  Alcotest.(check int) "no messages" 0 stats.Runtime.messages

(* More objects than the runtime's default round limit allows rounds:
   the protocol still runs to quiescence and matches the sequential
   placement. *)
let test_many_objects_no_round_limit () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let objects = 60_000 in
  let w = Workload.empty t ~objects in
  for obj = 0 to objects - 1 do
    Workload.set_read w ~obj 1 1
  done;
  let sets, stats = Dist_nibble.run w in
  let seq = Nibble.place_all w in
  Alcotest.(check bool) "more rounds than the default limit" true
    (stats.Runtime.rounds > 100_000);
  Alcotest.(check bool) "matches sequential" true
    (Array.for_all2 (fun got cs -> got = cs.Nibble.nodes) sets seq)

let prop_matches_sequential seed =
  let _, w = Helpers.instance seed in
  let sets, _ = Dist_nibble.run w in
  let seq = Nibble.place_all w in
  Array.for_all2 (fun got cs -> got = cs.Nibble.nodes) sets seq

let prop_rounds_pipelined seed =
  (* O(|X| + height) with explicit constants: 4 sweeps, each starting at
     most one object per round after its pipeline fills. *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let x = Workload.num_objects w and h = Tree.height t in
  let _, stats = Dist_nibble.run w in
  stats.Runtime.rounds <= (4 * (x + h)) + 8

let prop_message_bound seed =
  (* At most 4 sweeps of |X| messages per edge. *)
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let _, stats = Dist_nibble.run w in
  stats.Runtime.messages
  <= 4 * Workload.num_objects w * max 1 (Tree.num_edges t)

(* --- asynchronous engine ------------------------------------------------ *)

module Link = Hbn_event.Link
module Faults = Hbn_dist.Faults
module Telemetry = Hbn_obs.Telemetry

(* The same convergecast on slow serialized links: the result is
   unchanged (the protocol is self-clocking — nodes wait for their
   children), only the round count stretches. *)
let test_link_convergecast () =
  let t = Builders.balanced ~arity:2 ~height:3 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let init v = (Array.length r.Tree.children.(v), 0, false) in
  let step ~round:_ ~node (missing, acc, sent) ~inbox =
    let missing = missing - List.length inbox in
    let acc = List.fold_left (fun a (_, m) -> a + m) acc inbox in
    if missing = 0 && not sent then
      if node = r.Tree.root then ((missing, acc, true), [])
      else
        ( (missing, acc, true),
          [ (r.Tree.parent.(node), acc + if Tree.is_leaf t node then 1 else 0) ] )
    else ((missing, acc, sent), [])
  in
  let sync = Runtime.run t ~init ~step in
  let slow = Runtime.run ~link:(Link.v [| (2., 1.) |]) t ~init ~step in
  let _, root_acc, _ = slow.Runtime.states.(r.Tree.root) in
  Alcotest.(check int) "root still counts the leaves" (Tree.num_leaves t)
    root_acc;
  Alcotest.(check int) "same messages"
    sync.Runtime.stats.Runtime.messages slow.Runtime.stats.Runtime.messages;
  Alcotest.(check bool) "quiescent" true
    (slow.Runtime.termination = Runtime.Quiescent);
  Alcotest.(check bool) "slow links stretch the rounds" true
    (slow.Runtime.stats.Runtime.rounds > sync.Runtime.stats.Runtime.rounds)

(* Deliveries reach an inbox in arrival order, ties in send order. Every
   node sends its id to each neighbour in round 1. Root-incident links
   take 0.9 and the level below 0.3, so node 1 hears its children 2 and 3
   at 1.3 and the root at 1.9: all three are read at tick 2, the children
   first although the root sent first. *)
let test_link_inbox_arrival_order () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let link = Result.get_ok (Link.of_spec "0.9:inf,0.3:inf") in
  let step ~round ~node heard ~inbox =
    let heard = if round = 2 then List.map snd inbox else heard in
    let sends =
      if round = 1 then
        Array.to_list (Array.map (fun (u, _) -> (u, node)) (Tree.neighbors t node))
      else []
    in
    (heard, sends)
  in
  let out = Runtime.run ~link t ~init:(fun _ -> []) ~step in
  Alcotest.(check (list int)) "node 1 reads its children, then the root"
    [ 2; 3; 0 ] out.Runtime.states.(1)

(* The acceptance criterion: with unit delay and infinite bandwidth the
   event-driven runtime is bit-identical to the synchronous one —
   placement, stats, fault log and telemetry series — over random
   topologies, workloads and fault plans. *)
let prop_async_sync_bit_identical seed =
  let _, w = Helpers.instance seed in
  let tree = Hbn_workload.Workload.tree w in
  let faults =
    if seed mod 2 = 0 then Faults.make ~seed ~drop:0.15 ~drop_until:60 ()
    else Faults.none
  in
  let t1 = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let t2 = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let a = Dist_nibble.run_robust ~faults ~telemetry:t1 w in
  let b = Dist_nibble.run_robust ~faults ~telemetry:t2 ~link:Link.sync w in
  a = b && Telemetry.points t1 = Telemetry.points t2

(* Stop-and-wait on genuinely slow links: frames take multiple ticks to
   arrive (propagation delay 2 below the root) while the retransmit
   timers keep counting integer rounds, so the timeout must cover the
   round trip — with it, recovery still converges to the sequential
   placement under drops. *)
let test_robust_on_slow_links_completes () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let leaves = Array.of_list (Tree.leaves t) in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 leaves.(0) 6;
  Workload.set_write w ~obj:1 leaves.(1) 3;
  let faults = Faults.make ~seed:11 ~drop:0.1 ~drop_until:40 () in
  match
    Dist_nibble.run_robust ~timeout:8 ~faults
      ~link:(Link.v [| (1., 64.); (2., 32.) |])
      w
  with
  | Dist_nibble.Degraded _ -> Alcotest.fail "expected completion"
  | Dist_nibble.Complete { placement; _ } ->
    let seq = Nibble.place_all w in
    Array.iteri
      (fun obj nodes ->
        Alcotest.(check (list int))
          (Printf.sprintf "object %d matches sequential" obj)
          seq.(obj).Nibble.nodes nodes)
      placement

let suite =
  [
    Helpers.tc "engine convergecast" test_engine_convergecast;
    Helpers.tc "engine rejects non-neighbors" test_engine_rejects_non_neighbor;
    Helpers.tc "engine rejects double sends" test_engine_rejects_double_send;
    Helpers.tc "engine round limit" test_engine_round_limit;
    Helpers.tc "distributed nibble hand example" test_dist_nibble_hand_example;
    Helpers.tc "single node network" test_single_node_network;
    Helpers.tc "distributed nibble past the default round limit"
      test_many_objects_no_round_limit;
    Helpers.qt ~count:150 "distributed nibble = sequential everywhere"
      Helpers.seed_arb prop_matches_sequential;
    Helpers.qt "rounds are pipelined" Helpers.seed_arb prop_rounds_pipelined;
    Helpers.qt "message bound" Helpers.seed_arb prop_message_bound;
    Helpers.tc "run ~link convergecast on slow links" test_link_convergecast;
    Helpers.tc "run ~link inbox in arrival order" test_link_inbox_arrival_order;
    Helpers.qt ~count:60 "Link.sync runtime is bit-identical to synchronous"
      Helpers.seed_arb prop_async_sync_bit_identical;
    Helpers.tc "robust nibble completes on slow links"
      test_robust_on_slow_links_completes;
  ]
