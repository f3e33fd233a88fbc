(* Fault injection and recovery: the Faults plan algebra, the runtime's
   fault application, and the hardened distributed nibble. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Runtime = Hbn_dist.Runtime
module Dist_nibble = Hbn_dist.Dist_nibble
module Dist = Hbn_dist.Dist
module Faults = Hbn_dist.Faults

(* -- plan algebra ------------------------------------------------------- *)

let test_spec_round_trip () =
  let spec = "drop=0.2,until=40,crash=3:5-15,cut=2:10-14,crash=1:20-inf" in
  match Faults.of_spec ~seed:9 spec with
  | Error e -> Alcotest.failf "of_spec: %s" e
  | Ok p ->
    Alcotest.(check int) "seed" 9 (Faults.seed p);
    Alcotest.(check bool) "not empty" false (Faults.is_empty p);
    (match Faults.of_spec ~seed:9 (Faults.to_spec p) with
    | Error e -> Alcotest.failf "re-parse: %s" e
    | Ok p' ->
      Alcotest.(check string) "canonical spec is a fixed point"
        (Faults.to_spec p) (Faults.to_spec p'))

let test_spec_errors () =
  let expect_error spec =
    match Faults.of_spec spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error for %S is non-empty" spec)
        true
        (String.length e > 0)
  in
  List.iter expect_error
    [
      "drop=2.0";
      "drop=-0.1";
      "drop=0.5,drop=0.2";
      "until=10,until=20";
      "crash=1:9-5";
      "crash=x:1-2";
      "cut=0:1";
      "nonsense=1";
      "";
    ]

let test_spec_errors_carry_position () =
  (* Errors name the offending clause by index and character offset, so
     a long CLI spec pinpoints its own typo. *)
  let check spec sub =
    match Faults.of_spec spec with
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
    | Error e ->
      if not (Helpers.contains e sub) then
        Alcotest.failf "error %S for %S does not mention %S" e spec sub
  in
  check "drop=2.0" "clause 1 at char 0";
  check "drop=0.1,crash=x:1-2" "clause 2 at char 9";
  check "drop=0.1,until=30,cut=0:9-5" "clause 3 at char 18";
  check "drop=0.5,drop=0.2" "clause 2 at char 9";
  check "drop=0.1,until=zero" "clause 2 at char 9";
  check "crash=1:2-4,cut=-1:3-9" "clause 2 at char 12";
  check "drop=nan" "clause 1 at char 0"

(* [make] enforces the same [0, 1] range as the spec grammar; a NaN
   plan would be non-empty yet never drop, and render as "drop=0". *)
let test_make_rejects_bad_drop () =
  List.iter
    (fun drop ->
      Alcotest.(check bool)
        (Printf.sprintf "drop=%f rejected" drop)
        true
        (try
           ignore (Faults.make ~drop ());
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.5; Float.nan ]

(* of_spec ∘ to_spec = id over arbitrary valid plans. Drop
   probabilities come from a 1/16 grid (exact in binary, so the %g
   rendering is lossless); windows mix finite and "-inf" right ends.
   Plans built by [make] are compared after a round trip through the
   spec grammar — canonical-spec fixed point plus full semantic
   agreement on the query grid, which is what the runtime actually
   consumes. *)
let plan_arb =
  let window max_id =
    QCheck.Gen.(
      map
        (fun ((id, a), len) ->
          (id, a, if len > 15 then max_int else a + len))
        (pair (pair (int_bound max_id) (int_range 1 30)) (int_bound 20)))
  in
  QCheck.make
    ~print:(fun (drop16, until, crashes, cuts) ->
      Printf.sprintf "drop=%d/16 until=%d crashes=[%s] cuts=[%s]" drop16 until
        (String.concat ";"
           (List.map (fun (n, a, b) -> Printf.sprintf "%d:%d-%d" n a b) crashes))
        (String.concat ";"
           (List.map (fun (e, a, b) -> Printf.sprintf "%d:%d-%d" e a b) cuts)))
    QCheck.Gen.(
      quad (int_bound 16) (int_range 1 100)
        (list_size (int_bound 3) (window 9))
        (list_size (int_bound 3) (window 6)))

let prop_plan_spec_round_trip (drop16, until, crashes, cuts) =
  let p =
    Faults.make ~seed:9 ~drop:(float_of_int drop16 /. 16.) ~drop_until:until
      ~crashes ~cuts ()
  in
  let s = Faults.to_spec p in
  match Faults.of_spec ~seed:9 s with
  | Error e -> QCheck.Test.fail_reportf "of_spec %S: %s" s e
  | Ok p' ->
    Faults.to_spec p' = s
    && Faults.seed p' = Faults.seed p
    && Faults.is_empty p' = Faults.is_empty p
    && Faults.quiet_after p' = Faults.quiet_after p
    && List.for_all
         (fun round ->
           List.for_all
             (fun id ->
               Faults.drops p' ~round ~edge:id ~src:(id + 1)
               = Faults.drops p ~round ~edge:id ~src:(id + 1)
               && Faults.node_down p' ~round ~node:id
                  = Faults.node_down p ~round ~node:id
               && Faults.edge_cut p' ~round ~edge:id
                  = Faults.edge_cut p ~round ~edge:id)
             (List.init 10 Fun.id))
         (List.init 60 (fun r -> r + 1))

(* -- virtual-time shim --------------------------------------------------- *)

let test_round_of_time () =
  Alcotest.(check int) "interior of a tick" 4 (Faults.round_of_time 3.2);
  Alcotest.(check int) "exact tick belongs to its round" 3
    (Faults.round_of_time 3.);
  Alcotest.(check int) "time zero" 0 (Faults.round_of_time 0.);
  Alcotest.(check int) "huge times saturate" max_int
    (Faults.round_of_time 1e300);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%f rejected" t)
        true
        (try
           ignore (Faults.round_of_time t);
           false
         with Invalid_argument _ -> true))
    [ -1.; Float.nan ]

let test_time_queries_match_round_queries () =
  (* A round window [A..B] covers the virtual interval (A-1, B]: an
     arrival strictly after tick A-1 and at or before tick B is consumed
     by a covered round. *)
  let p =
    match Faults.of_spec ~seed:3 "drop=0.3,until=20,crash=2:5-8,cut=1:3-9" with
    | Ok p -> p
    | Error e -> Alcotest.failf "of_spec: %s" e
  in
  let down_at t = Faults.node_down p ~round:(Faults.round_of_time t) ~node:2 in
  Alcotest.(check (list bool))
    "crash window 5..8 on the time axis"
    [ false; true; true; true; false ]
    (List.map down_at [ 4.0; 4.01; 5.0; 8.0; 8.5 ]);
  for r = 1 to 25 do
    Alcotest.(check bool) "time query = round query at integer times"
      (Faults.node_down p ~round:r ~node:2)
      (down_at (float_of_int r))
  done

let test_windows_inclusive () =
  let p =
    match Faults.of_spec "crash=2:5-8,cut=1:3-inf" with
    | Ok p -> p
    | Error e -> Alcotest.failf "of_spec: %s" e
  in
  let down r = Faults.node_down p ~round:r ~node:2 in
  Alcotest.(check (list bool)) "crash window 5..8 inclusive"
    [ false; true; true; true; true; false ]
    (List.map down [ 4; 5; 6; 7; 8; 9 ]);
  Alcotest.(check bool) "other node untouched" false
    (Faults.node_down p ~round:6 ~node:1);
  Alcotest.(check bool) "cut open at 3" true
    (Faults.edge_cut p ~round:3 ~edge:1);
  Alcotest.(check bool) "open cut never closes" true
    (Faults.edge_cut p ~round:1_000_000 ~edge:1);
  Alcotest.(check int) "open window pushes quiet_after to infinity" max_int
    (Faults.quiet_after p)

let test_quiet_after () =
  let p =
    match Faults.of_spec "crash=0:5-20,cut=3:10-30" with
    | Ok p -> p
    | Error e -> Alcotest.failf "of_spec: %s" e
  in
  Alcotest.(check int) "first structurally calm round" 31 (Faults.quiet_after p);
  Alcotest.(check int) "drops alone need no horizon" 0
    (Faults.quiet_after
       (match Faults.of_spec "drop=0.9" with Ok p -> p | Error _ -> assert false))

let test_drop_schedule_pure () =
  let p =
    match Faults.of_spec ~seed:5 "drop=0.5,until=1000000" with
    | Ok p -> p
    | Error _ -> assert false
  in
  let q1 = Faults.drops p ~round:3 ~edge:1 ~src:0 in
  let q2 = Faults.drops p ~round:3 ~edge:1 ~src:0 in
  Alcotest.(check bool) "same query, same answer" q1 q2;
  (* Over many (round, edge) cells the schedule must actually vary and
     track the probability roughly. *)
  let hits = ref 0 and total = 500 in
  for r = 1 to total do
    if Faults.drops p ~round:r ~edge:0 ~src:1 then incr hits
  done;
  Alcotest.(check bool) "roughly half dropped at p=0.5" true
    (!hits > total / 4 && !hits < 3 * total / 4)

(* -- runtime under a plan ----------------------------------------------- *)

(* A deliberately chatty protocol whose full outcome is comparable:
   every leaf sends its id up each round until round [k]. *)
let chatty_step r k ~round ~node (acc : int) ~inbox =
  let acc = List.fold_left (fun a (_, m) -> a + m) acc inbox in
  if round <= k && node <> r.Tree.root then
    (acc, [ (r.Tree.parent.(node), node) ])
  else (acc, [])

let test_empty_plan_bit_identical () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let plain =
    Runtime.run t ~init:(fun _ -> 0) ~step:(chatty_step r 5)
  in
  let empty =
    match Faults.of_spec "drop=0" with
    | Ok p -> Runtime.run ~faults:p t ~init:(fun _ -> 0) ~step:(chatty_step r 5)
    | Error e -> Alcotest.failf "of_spec: %s" e
  in
  let none = Runtime.run ~faults:Faults.none t ~init:(fun _ -> 0) ~step:(chatty_step r 5) in
  Alcotest.(check bool) "drop=0 plan: identical outcome" true (plain = empty);
  Alcotest.(check bool) "Faults.none: identical outcome" true (plain = none)

let test_runtime_drops_are_logged () =
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let p =
    match Faults.of_spec ~seed:1 "drop=0.4,until=6" with
    | Ok p -> p
    | Error _ -> assert false
  in
  let out = Runtime.run ~faults:p t ~init:(fun _ -> 0) ~step:(chatty_step r 6) in
  let dropped =
    List.filter
      (fun e -> match e.Faults.kind with Faults.Dropped _ -> true | _ -> false)
      out.Runtime.faults
  in
  Alcotest.(check bool) "some messages dropped" true (List.length dropped > 0);
  (* Sends are counted whether or not the plan then eats them. *)
  Alcotest.(check int) "sends counted despite drops" (4 * 6)
    out.Runtime.stats.Runtime.messages;
  (* The hub's tally misses exactly the dropped contributions. *)
  let lost =
    List.fold_left
      (fun a e ->
        match e.Faults.kind with Faults.Dropped { src; _ } -> a + src | _ -> a)
      0 out.Runtime.faults
  in
  let full = 6 * (1 + 2 + 3 + 4) in
  Alcotest.(check int) "hub tally = full - dropped"
    (full - lost)
    out.Runtime.states.(r.Tree.root)

let test_crashed_node_frozen () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let p =
    match Faults.of_spec "crash=1:2-4" with
    | Ok p -> p
    | Error _ -> assert false
  in
  (* Each node counts the rounds it actually stepped. *)
  let out =
    Runtime.run ~faults:p ~max_rounds:6 t
      ~init:(fun _ -> 0)
      ~step:(fun ~round ~node steps ~inbox ->
        ignore inbox;
        let sends =
          if round <= 6 && node <> r.Tree.root then
            [ (r.Tree.parent.(node), ()) ]
          else []
        in
        (steps + 1, sends))
  in
  Alcotest.(check int) "crashed node missed rounds 2-4" 3
    (out.Runtime.states.(2) - out.Runtime.states.(1));
  let kinds =
    List.filter_map
      (fun e ->
        match e.Faults.kind with
        | Faults.Crashed { node } -> Some (`C (e.Faults.round, node))
        | Faults.Restarted { node } -> Some (`R (e.Faults.round, node))
        | _ -> None)
      out.Runtime.faults
  in
  Alcotest.(check bool) "crash and restart logged" true
    (List.mem (`C (2, 1)) kinds && List.mem (`R (5, 1)) kinds)

(* -- hardened nibble ---------------------------------------------------- *)

let drop_plan ~seed = Faults.make ~seed ~drop:0.15 ~drop_until:100 ()

let test_robust_recovers_hand_example () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 1 10;
  Workload.set_write w ~obj:0 2 2;
  match Dist_nibble.run_robust ~faults:(drop_plan ~seed:4) w with
  | Dist_nibble.Degraded _ -> Alcotest.fail "expected recovery"
  | Dist_nibble.Complete { placement; stats; log } ->
    let seq = Nibble.place_all w in
    Alcotest.(check (list int)) "object 0 matches sequential"
      seq.(0).Nibble.nodes placement.(0);
    Alcotest.(check (list int)) "unused object stays empty" [] placement.(1);
    Alcotest.(check bool) "drops actually happened" true
      (List.length log > 0);
    Alcotest.(check bool) "losses were retransmitted" true
      (stats.Dist_nibble.retransmissions > 0)

let test_robust_permanent_crash_degrades () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  Workload.set_read w ~obj:0 1 5;
  let p = Faults.make ~crashes:[ (2, 1, max_int) ] () in
  match Dist_nibble.run_robust ~max_rounds:300 ~faults:p w with
  | Dist_nibble.Complete _ -> Alcotest.fail "expected degradation"
  | Dist_nibble.Degraded { reason; stats; _ } ->
    Alcotest.(check bool) "round limit" true (reason = `Round_limit);
    Alcotest.(check bool) "undecided decisions reported" true
      (stats.Dist_nibble.undecided > 0)

let test_robust_crash_restart_recovers () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let leaves = Array.of_list (Tree.leaves t) in
  let w = Workload.empty t ~objects:2 in
  Workload.set_read w ~obj:0 leaves.(0) 6;
  Workload.set_write w ~obj:1 leaves.(1) 3;
  (* Crash an inner node mid-protocol, restart it, and cut an edge for a
     window; the retransmit layer must replay everything lost. *)
  let p = Faults.make ~crashes:[ (1, 3, 12) ] ~cuts:[ (0, 5, 9) ] () in
  match Dist_nibble.run_robust ~faults:p w with
  | Dist_nibble.Degraded _ -> Alcotest.fail "expected recovery"
  | Dist_nibble.Complete { placement; _ } ->
    let seq = Nibble.place_all w in
    Array.iteri
      (fun obj nodes ->
        Alcotest.(check (list int))
          (Printf.sprintf "object %d matches sequential" obj)
          seq.(obj).Nibble.nodes nodes)
      placement

let test_run_with_faults_recovered_placement () =
  let _, w = Helpers.instance 1234 in
  match Dist.run_with_faults ~faults:(drop_plan ~seed:8) w with
  | Dist.Degraded _ -> Alcotest.fail "expected recovery"
  | Dist.Recovered { placement; _ } ->
    let res = Strategy.run w in
    Alcotest.(check bool) "placement is the centralized strategy's" true
      (placement = res.Strategy.placement)

let test_replay_determinism () =
  let _, w = Helpers.instance 77 in
  let run () = Dist.run_with_faults ~faults:(drop_plan ~seed:3) w in
  match (run (), run ()) with
  | ( Dist.Recovered { log = l1; nibble = n1; _ },
      Dist.Recovered { log = l2; nibble = n2; _ } ) ->
    Alcotest.(check bool) "identical fault logs" true (l1 = l2);
    Alcotest.(check bool) "identical recovery stats" true (n1 = n2)
  | Dist.Degraded { log = l1; _ }, Dist.Degraded { log = l2; _ } ->
    Alcotest.(check bool) "identical fault logs" true (l1 = l2)
  | _ -> Alcotest.fail "outcomes diverged between identical runs"

(* -- properties --------------------------------------------------------- *)

(* (a) A fault-free robust run reproduces the plain protocol's placement
   with zero recovery traffic. *)
let prop_no_faults_no_recovery seed =
  let _, w = Helpers.instance seed in
  let plain, _ = Dist_nibble.run w in
  match Dist_nibble.run_robust w with
  | Dist_nibble.Degraded _ -> false
  | Dist_nibble.Complete { placement; stats; log } ->
    placement = plain
    && stats.Dist_nibble.retransmissions = 0
    && stats.Dist_nibble.duplicates = 0
    && log = []

(* (b) The fault schedule is a pure function of (seed, plan): replaying
   the same run yields the same fault log, event for event. *)
let prop_replay_same_log seed =
  let _, w = Helpers.instance seed in
  let faults = drop_plan ~seed in
  let log_of = function
    | Dist_nibble.Complete { log; _ } | Dist_nibble.Degraded { log; _ } -> log
  in
  log_of (Dist_nibble.run_robust ~faults w)
  = log_of (Dist_nibble.run_robust ~faults w)

(* (c) Bounded drops delay but never change the result: the recovered
   placement is congestion-equal (indeed equal) to the centralized
   strategy's. *)
let prop_bounded_drops_recover seed =
  let _, w = Helpers.instance seed in
  match Dist.run_with_faults ~faults:(drop_plan ~seed) w with
  | Dist.Recovered { placement; _ } -> placement = (Strategy.run w).Strategy.placement
  | Dist.Degraded _ -> false

let suite =
  [
    Helpers.tc "spec round trip" test_spec_round_trip;
    Helpers.qt ~count:200 "of_spec after to_spec is the identity" plan_arb
      prop_plan_spec_round_trip;
    Helpers.tc "spec errors" test_spec_errors;
    Helpers.tc "spec errors carry positions" test_spec_errors_carry_position;
    Helpers.tc "make rejects bad drop probabilities" test_make_rejects_bad_drop;
    Helpers.tc "round_of_time quantization" test_round_of_time;
    Helpers.tc "virtual-time queries match round queries"
      test_time_queries_match_round_queries;
    Helpers.tc "windows are inclusive" test_windows_inclusive;
    Helpers.tc "quiet_after horizon" test_quiet_after;
    Helpers.tc "drop schedule is pure" test_drop_schedule_pure;
    Helpers.tc "empty plan is bit-identical" test_empty_plan_bit_identical;
    Helpers.tc "runtime logs drops" test_runtime_drops_are_logged;
    Helpers.tc "crashed node frozen" test_crashed_node_frozen;
    Helpers.tc "robust recovers hand example" test_robust_recovers_hand_example;
    Helpers.tc "permanent crash degrades" test_robust_permanent_crash_degrades;
    Helpers.tc "crash+restart recovers" test_robust_crash_restart_recovers;
    Helpers.tc "recovered placement = centralized"
      test_run_with_faults_recovered_placement;
    Helpers.tc "replay determinism" test_replay_determinism;
    Helpers.qt ~count:75 "no faults, no recovery traffic" Helpers.seed_arb
      prop_no_faults_no_recovery;
    Helpers.qt ~count:30 "same plan, same fault log" Helpers.seed_arb
      prop_replay_same_log;
    Helpers.qt ~count:30 "bounded drops recover exactly" Helpers.seed_arb
      prop_bounded_drops_recover;
  ]
