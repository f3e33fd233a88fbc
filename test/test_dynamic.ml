module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Request = Hbn_dynamic.Request
module Online = Hbn_dynamic.Online
module Offline = Hbn_dynamic.Offline
module Prng = Hbn_prng.Prng

let star n = Builders.star ~leaves:n ~profile:(Builders.Uniform 1)

let reads node k = List.init k (fun _ -> { Request.node; kind = Request.Read })
let writes node k = List.init k (fun _ -> { Request.node; kind = Request.Write })

let test_reads_trigger_replication () =
  (* Copy on processor 1; processor 2 reads repeatedly. With threshold 1
     the first read pays crossing + replication, later reads are free. *)
  let t = star 3 in
  let out = Online.run t ~initial:1 (reads 2 10) in
  (* First read: 2 crossing loads (e for node 2 and e for node 1) and 2
     replication transfers (set crawls bus then leaf 2). *)
  Alcotest.(check int) "replications" 2 out.Online.replications;
  let total = Array.fold_left ( + ) 0 out.Online.edge_loads in
  Alcotest.(check int) "total load" 4 total;
  Alcotest.(check bool) "reader joined the set" true
    (List.mem 2 out.Online.final_set)

let test_writes_contract () =
  let t = star 3 in
  (* Expand to everyone, then writes from 1 shrink the set back. *)
  let seq = reads 2 3 @ reads 3 3 @ writes 1 5 in
  let out = Online.run ~validate:true t ~initial:1 seq in
  Alcotest.(check (list int)) "contracted to the writer" [ 1 ]
    out.Online.final_set;
  Alcotest.(check bool) "had replicas" true (out.Online.max_copies >= 3)

let test_write_migration () =
  (* Copy far from a heavy writer must migrate: total load stays O(1). *)
  let t = star 3 in
  let out = Online.run ~validate:true t ~initial:1 (writes 2 50) in
  let total = Array.fold_left ( + ) 0 out.Online.edge_loads in
  Alcotest.(check bool) "migrated instead of paying 50" true (total <= 8);
  Alcotest.(check (list int)) "lives at the writer" [ 2 ] out.Online.final_set

let test_offline_dp_simple () =
  let t = star 3 in
  (* Edge to processor 2 is edge 1 (edges: bus-1, bus-2, bus-3). *)
  let opt = Offline.per_edge_optimum t ~initial:1 (reads 2 10) in
  (* Best: replicate across once. *)
  Alcotest.(check int) "one crossing suffices" 1 opt.(1);
  let opt2 = Offline.per_edge_optimum t ~initial:1 (writes 2 50) in
  Alcotest.(check int) "migrate once" 1 opt2.(1);
  (* Alternation R2 W1 R2 W1 ...: any state pays ~1 per round on edge 1. *)
  let alt =
    List.concat (List.init 10 (fun _ -> reads 2 1 @ writes 1 1))
  in
  let opt3 = Offline.per_edge_optimum t ~initial:1 alt in
  Alcotest.(check int) "alternation costs 10" 10 opt3.(1)

let test_phases_dynamic_beats_static () =
  (* Long read phases then long write phases: a dynamic strategy
     re-replicates and contracts per phase; every static placement pays
     every phase. *)
  let t = star 4 in
  let prng = Prng.create 77 in
  let seq =
    Request.phases ~prng t ~readers:[ 2; 3; 4 ] ~writer:1 ~phase_length:50
      ~phases:8
  in
  let dyn = Online.run t ~initial:1 seq in
  let dyn_total = Array.fold_left ( + ) 0 dyn.Online.edge_loads in
  (* The best static competitor in hindsight: frequencies of the sequence
     evaluated at every copy-set choice... use the nibble placement of
     the aggregated frequencies (per-edge optimal among placements). *)
  let w = Workload.empty t ~objects:1 in
  List.iter
    (fun (r : Request.t) ->
      match r.Request.kind with
      | Request.Read ->
        Workload.set_read w ~obj:0 r.Request.node
          (Workload.reads w ~obj:0 r.Request.node + 1)
      | Request.Write ->
        Workload.set_write w ~obj:0 r.Request.node
          (Workload.writes w ~obj:0 r.Request.node + 1))
    seq;
  let static_total =
    Array.fold_left ( + ) 0 (Nibble.edge_loads w)
  in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic %d < static-in-hindsight %d" dyn_total
       static_total)
    true
    (dyn_total < static_total)

let competitive_ratio ?(threshold = 1) tree ~initial seq =
  let dyn = Online.run ~threshold tree ~initial seq in
  let opt = Offline.per_edge_optimum tree ~initial seq in
  let worst = ref 0. in
  Array.iteri
    (fun e l ->
      if opt.(e) > 0 then
        worst :=
          Float.max !worst (float_of_int l /. float_of_int opt.(e))
      else if l > 2 * threshold + 1 then worst := infinity)
    dyn.Online.edge_loads;
  !worst

let test_adversarial_alternation_ratio_3 () =
  (* The classic bad sequence: alternate a crossing read and a spanning
     write. Online pays 3 per round, offline 1 — exactly ratio 3. *)
  let t = star 2 in
  let rounds = 50 in
  let seq =
    List.concat (List.init rounds (fun _ -> reads 2 1 @ writes 1 1))
  in
  let ratio = competitive_ratio t ~initial:1 seq in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f in (2.5, 3.1]" ratio)
    true
    (ratio > 2.5 && ratio <= 3.1)

let prop_copy_set_always_valid seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      (match
         Online.run ~validate:true tree ~initial:first.Request.node reqs
       with
      | _ -> ()
      | exception Failure _ -> ok := false)
  done;
  !ok

let prop_competitive_ratio_bounded seed =
  (* Per-edge: dynamic load <= 3 * offline optimum + a small additive
     constant (unfinished counter cycles; across 3000 stress seeds the
     worst observed additive excess is 4, and the multiplicative ratio on
     edges with optimum >= 15 stays below 3.05). *)
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      let dyn = Online.run tree ~initial:first.Request.node reqs in
      let opt =
        Offline.per_edge_optimum tree ~initial:first.Request.node reqs
      in
      Array.iteri
        (fun e l -> if l > (3 * opt.(e)) + 6 then ok := false)
        dyn.Online.edge_loads
  done;
  !ok

let prop_offline_leq_online seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      let dyn = Online.run tree ~initial:first.Request.node reqs in
      let opt =
        Offline.per_edge_optimum tree ~initial:first.Request.node reqs
      in
      Array.iteri
        (fun e l -> if opt.(e) > l then ok := false)
        dyn.Online.edge_loads
  done;
  !ok

let prop_offline_leq_static_nibble seed =
  (* The per-edge dynamic optimum can only beat the best static placement
     (nibble loads) computed from the same aggregated frequencies. *)
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      let opt =
        Offline.per_edge_optimum tree ~initial:first.Request.node reqs
      in
      let w1 = Workload.empty tree ~objects:1 in
      List.iter
        (fun (r : Request.t) ->
          match r.Request.kind with
          | Request.Read ->
            Workload.set_read w1 ~obj:0 r.Request.node
              (Workload.reads w1 ~obj:0 r.Request.node + 1)
          | Request.Write ->
            Workload.set_write w1 ~obj:0 r.Request.node
              (Workload.writes w1 ~obj:0 r.Request.node + 1))
        reqs;
      let static = Nibble.edge_loads w1 in
      Array.iteri
        (fun e o -> if o > static.(e) + 1 (* initial copy transfer *) then ok := false)
        opt
  done;
  !ok

let prop_request_generators_cover seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let count kind reqs =
    List.length (List.filter (fun r -> r.Request.kind = kind) reqs)
  in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    let expected_r =
      List.fold_left
        (fun a v -> a + Workload.reads w ~obj v)
        0 (Tree.leaves tree)
    in
    let expected_w =
      List.fold_left
        (fun a v -> a + Workload.writes w ~obj v)
        0 (Tree.leaves tree)
    in
    let shuffled = Request.of_workload ~prng w ~obj in
    let burst = Request.bursty ~prng w ~obj ~burst:4 in
    if count Request.Read shuffled <> expected_r then ok := false;
    if count Request.Write shuffled <> expected_w then ok := false;
    if count Request.Read burst <> expected_r then ok := false;
    if count Request.Write burst <> expected_w then ok := false
  done;
  !ok

let test_online_violation_shape () =
  let reqs =
    List.concat_map (fun node -> reads node 1 @ writes node 1) [ 1; 2; 3; 1; 2 ]
  in
  let out = Online.run ~validate:true (star 4) ~initial:1 reqs in
  Alcotest.(check bool) "a valid run carries no violation" true
    (out.Online.violation = None);
  Alcotest.(check int) "every request served" (List.length reqs)
    out.Online.served

let suite =
  [
    Helpers.tc "reads trigger replication" test_reads_trigger_replication;
    Helpers.tc "writes contract the set" test_writes_contract;
    Helpers.tc "write-only traffic migrates" test_write_migration;
    Helpers.tc "offline DP on simple sequences" test_offline_dp_simple;
    Helpers.tc "phases: dynamic beats static in hindsight"
      test_phases_dynamic_beats_static;
    Helpers.tc "adversarial alternation hits ratio 3"
      test_adversarial_alternation_ratio_3;
    Helpers.tc "online violations are structured" test_online_violation_shape;
    Helpers.qt ~count:40 "copy set stays connected and nonempty"
      Helpers.seed_arb prop_copy_set_always_valid;
    Helpers.qt ~count:120 "per-edge load <= 3*OPT + slack" Helpers.seed_arb
      prop_competitive_ratio_bounded;
    Helpers.qt ~count:40 "offline optimum below online load" Helpers.seed_arb
      prop_offline_leq_online;
    Helpers.qt ~count:40 "offline optimum below static nibble"
      Helpers.seed_arb prop_offline_leq_static_nibble;
    Helpers.qt "request generators conserve frequencies" Helpers.seed_arb
      prop_request_generators_cover;
  ]

(* --- non-uniform object sizes (the [12] cost model) ------------------- *)

let prop_sized_competitive seed =
  (* With data size D, transfers cost D and thresholds scale with D; the
     load still stays within 3*OPT plus an O(D) additive term. *)
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let size = 1 + (seed mod 5) in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      let dyn =
        Online.run ~size tree ~initial:first.Request.node reqs
      in
      let opt =
        Offline.per_edge_optimum ~size tree ~initial:first.Request.node reqs
      in
      Array.iteri
        (fun e l -> if l > (3 * opt.(e)) + (6 * size) then ok := false)
        dyn.Online.edge_loads
  done;
  !ok

let prop_sized_consistent seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    match Request.of_workload ~prng w ~obj with
    | [] -> ()
    | first :: _ as reqs ->
      (match
         Online.run ~size:3 ~validate:true tree
           ~initial:first.Request.node reqs
       with
      | _ -> ()
      | exception Failure _ -> ok := false)
  done;
  !ok

let test_size_discourages_replication () =
  (* A few reads are not worth moving a huge object. *)
  let t = star 3 in
  let small = Online.run ~size:1 t ~initial:1 (reads 2 3) in
  let large = Online.run ~size:10 t ~initial:1 (reads 2 3) in
  Alcotest.(check bool) "small object replicates" true
    (small.Online.replications > 0);
  Alcotest.(check int) "large object stays put" 0 large.Online.replications;
  (* Offline agrees: for 3 reads, crossing each is cheaper than a size-10
     transfer. *)
  let opt = Offline.per_edge_optimum ~size:10 t ~initial:1 (reads 2 3) in
  Alcotest.(check int) "offline pays the reads" 3 opt.(1)

let sized_suite =
  [
    Helpers.tc "large objects are not worth replicating"
      test_size_discourages_replication;
    Helpers.qt ~count:30 "sized competitive bound" Helpers.seed_arb
      prop_sized_competitive;
    Helpers.qt ~count:20 "sized runs stay consistent" Helpers.seed_arb
      prop_sized_consistent;
  ]

let suite = suite @ sized_suite
