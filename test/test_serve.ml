(* The serving tier: slot numbering, drift generators, the
   record/replay round-trip, the adaptation loop's budget/hysteresis
   discipline, and the observability plumbing it rides on (batched
   telemetry, reconfiguration counters, monitor prefixes). *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Prng = Hbn_prng.Prng
module Exec = Hbn_exec.Exec
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Drift = Hbn_serve.Drift
module Serve = Hbn_serve.Serve
module Loads = Hbn_loads.Loads

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* -- drift generators --------------------------------------------------- *)

let serve_tree () = Builders.balanced ~arity:3 ~height:2 ~profile:(Builders.Uniform 2)

let same_tables a b =
  let n_of w = Tree.n (Workload.tree w) in
  Array.length a = Array.length b
  && Array.for_all
       (fun i ->
         let wa = a.(i) and wb = b.(i) in
         Workload.num_objects wa = Workload.num_objects wb
         && n_of wa = n_of wb
         &&
         let ok = ref true in
         for obj = 0 to Workload.num_objects wa - 1 do
           for node = 0 to n_of wa - 1 do
             if
               Workload.reads wa ~obj node <> Workload.reads wb ~obj node
               || Workload.writes wa ~obj node <> Workload.writes wb ~obj node
             then ok := false
           done
         done;
         !ok)
       (Array.init (Array.length a) (fun i -> i))

let test_drift_deterministic () =
  let tree = serve_tree () in
  let mk () = Drift.create Drift.Hotspot_migration ~seed:9 ~tree ~objects:4 ~rate:4 in
  let a = Serve.tables (mk ()) ~epochs:6 in
  let b = Serve.tables (mk ()) ~epochs:6 in
  Alcotest.(check bool) "same seed, same tables" true (same_tables a b);
  let c =
    Serve.tables
      (Drift.create Drift.Hotspot_migration ~seed:10 ~tree ~objects:4 ~rate:4)
      ~epochs:6
  in
  Alcotest.(check bool) "different seed, different tables" false
    (same_tables a c)

let test_drift_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Drift.kind_name k ^ " round-trips")
        true
        (Drift.kind_of_name (Drift.kind_name k) = Some k))
    Drift.all_kinds;
  Alcotest.(check bool) "unknown name rejected" true
    (Drift.kind_of_name "weekly" = None)

(* -- the serving loop --------------------------------------------------- *)

let small_cfg =
  { Serve.default with
    Serve.slots_per_epoch = 8; epochs = 12; budget_bytes = 2048;
    climb_iters = 80; seed = 7 }

let run_kind ?exec ?(cfg = small_cfg) kind =
  let tree = serve_tree () in
  let d = Drift.create kind ~seed:cfg.Serve.seed ~tree ~objects:4 ~rate:4 in
  Serve.run ?exec cfg (Serve.Generator d)

(* The comparable payload of an outcome: everything except the live
   telemetry/monitor handles. *)
let fingerprint (o : Serve.outcome) =
  ( o.Serve.epochs, o.Serve.total_requests, o.Serve.total_bytes_migrated,
    o.Serve.reoptimized_epochs, o.Serve.alerts, o.Serve.final_copies )

(* Slots are numbered absolutely: epoch [e] owns slots
   [e * slots_per_epoch ..] with no gap or overlap, epoch 0 starting at
   slot 0, so the telemetry holds one round per slot in order. An epoch
   without slots is rejected. *)
let test_epoch_edges () =
  let out = run_kind Drift.Steady in
  let slots = small_cfg.Serve.slots_per_epoch * small_cfg.Serve.epochs in
  Alcotest.(check (list int))
    "one round per slot, from 0" (List.init slots Fun.id)
    (List.map
       (fun (p : Telemetry.point) -> p.Telemetry.round)
       (Telemetry.points out.Serve.telemetry));
  Alcotest.(check bool) "zero-width epochs rejected" true
    (raises_invalid (fun () ->
         run_kind ~cfg:{ small_cfg with Serve.slots_per_epoch = 0 } Drift.Steady))

let test_steady_stays_put () =
  let out = run_kind Drift.Steady in
  Alcotest.(check int) "no re-optimizations" 0 out.Serve.reoptimized_epochs;
  Alcotest.(check int) "no migration bytes" 0 out.Serve.total_bytes_migrated;
  Alcotest.(check int) "no alerts" 0 (List.length out.Serve.alerts);
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9))
        "serving equals stale when nothing moves" s.Serve.s_stale
        s.Serve.s_congestion)
    out.Serve.epochs

let test_budget_and_hysteresis_bound () =
  (* A deliberately tight budget: every committed epoch must still fit
     under it, and epochs that did not commit must pay nothing. *)
  let cfg = { small_cfg with Serve.budget_bytes = 512; epochs = 16 } in
  List.iter
    (fun kind ->
      let out = run_kind ~cfg kind in
      List.iter
        (fun s ->
          if s.Serve.s_bytes_migrated > cfg.Serve.budget_bytes then
            Alcotest.failf "%s epoch %d migrated %d bytes over budget %d"
              (Drift.kind_name kind) s.Serve.s_epoch s.Serve.s_bytes_migrated
              cfg.Serve.budget_bytes;
          if (not s.Serve.s_reoptimized) && s.Serve.s_bytes_migrated <> 0 then
            Alcotest.failf "%s epoch %d paid bytes without committing"
              (Drift.kind_name kind) s.Serve.s_epoch)
        out.Serve.epochs)
    [ Drift.Flash_crowd; Drift.Hotspot_migration ]

let test_hotspot_adapts () =
  let out = run_kind Drift.Hotspot_migration in
  Alcotest.(check bool) "drift triggers re-optimization" true
    (out.Serve.reoptimized_epochs > 0);
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 out.Serve.epochs in
  let serve = sum (fun s -> s.Serve.s_congestion) in
  let stale = sum (fun s -> s.Serve.s_stale) in
  Alcotest.(check bool) "adaptation beats serving stale" true (serve < stale)

let test_replay_round_trip () =
  let tree = serve_tree () in
  let cfg = small_cfg in
  let d () =
    Drift.create Drift.Hotspot_migration ~seed:cfg.Serve.seed ~tree ~objects:4
      ~rate:4
  in
  let out_gen = Serve.run cfg (Serve.Generator (d ())) in
  let ts = Serve.tables (d ()) ~epochs:cfg.Serve.epochs in
  let path = Filename.temp_file "hbn_serve_tables" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Helpers.check_ok "save_tables" (Serve.save_tables path ts);
      match Serve.load_tables ~tree path with
      | Error m -> Alcotest.failf "load_tables: %s" m
      | Ok ts' ->
        Alcotest.(check bool) "tables survive the file format" true
          (same_tables ts ts');
        let out_replay = Serve.run cfg (Serve.Tables ts') in
        Alcotest.(check bool) "replay reproduces the serve run" true
          (fingerprint out_gen = fingerprint out_replay))

let test_jobs_deterministic () =
  let runs =
    List.map
      (fun jobs ->
        Exec.with_runner ~jobs (fun exec ->
            fingerprint (run_kind ~exec Drift.Hotspot_migration)))
      [ 1; 2; 4 ]
  in
  match runs with
  | [ a; b; c ] ->
    Alcotest.(check bool) "jobs 1 = jobs 2" true (a = b);
    Alcotest.(check bool) "jobs 1 = jobs 4" true (a = c)
  | _ -> assert false

let test_rerun_deterministic () =
  let a = fingerprint (run_kind Drift.Flash_crowd) in
  let b = fingerprint (run_kind Drift.Flash_crowd) in
  Alcotest.(check bool) "reruns are byte-identical" true (a = b)

let test_load_tables_rejects_garbage () =
  let tree = serve_tree () in
  let reject name content =
    let path = Filename.temp_file "hbn_serve_bad" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Serve.load_tables ~tree path with
        | Ok _ -> Alcotest.failf "%s: accepted a malformed file" name
        | Error _ -> ())
  in
  reject "wrong magic" "not-a-table 1\n";
  reject "wrong node count"
    "hbn-serve-tables 1\nepochs 1\nnodes 3\nobjects 1\n";
  let n = Tree.n tree in
  reject "non-leaf cell"
    (Printf.sprintf "hbn-serve-tables 1\nepochs 1\nnodes %d\nobjects 1\ne 0 0 0 1 0\n" n);
  (* The rules of a workload file's rate lines: every error names its
     line, a second line for a cell names the first, and trailing words
     are rejected. *)
  let reject_with name content subs =
    let path = Filename.temp_file "hbn_serve_bad" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc content);
        match Serve.load_tables ~tree path with
        | Ok _ -> Alcotest.failf "%s: accepted a malformed file" name
        | Error m ->
          List.iter
            (fun sub ->
              if not (Helpers.contains m sub) then
                Alcotest.failf "%s: error %S does not mention %S" name m sub)
            subs)
  in
  let leaf = List.hd (Tree.leaves tree) in
  let head = Printf.sprintf "hbn-serve-tables 1\nepochs 2\nnodes %d\nobjects 1\n" n in
  reject_with "duplicate cell"
    (Printf.sprintf "%se 1 0 %d 1 0\ne 0 0 %d 2 0\ne 1 0 %d 3 0\n" head leaf
       leaf leaf)
    [ "line 7"; "line 5"; "duplicate rate" ];
  reject_with "trailing word on a cell"
    (Printf.sprintf "%se 0 0 %d 1 0 9\n" head leaf) [ "line 5" ];
  reject_with "trailing word on a count"
    (Printf.sprintf "hbn-serve-tables 1\nepochs 2 junk\nnodes %d\n" n)
    [ "line 2" ];
  reject_with "trailing word on the magic line" "hbn-serve-tables 1 x\n"
    [ "line 1" ];
  reject_with "wrong magic, positioned" "not-a-table 1\n" [ "line 1" ];
  reject_with "wrong node count, positioned"
    "hbn-serve-tables 1\nepochs 1\nnodes 3\nobjects 1\n" [ "line 3" ];
  reject_with "non-leaf cell, positioned"
    (Printf.sprintf "%se 0 0 0 1 0\n" head) [ "line 5" ];
  reject_with "epoch out of range" (Printf.sprintf "%se 2 0 %d 1 0\n" head leaf)
    [ "line 5"; "epoch 2" ];
  reject_with "negative rate" (Printf.sprintf "%se 0 0 %d -1 0\n" head leaf)
    [ "line 5" ];
  reject_with "zero epochs" "hbn-serve-tables 1\nepochs 0\n" [ "line 2" ];
  reject_with "cells beyond an array"
    (Printf.sprintf "hbn-serve-tables 1\nepochs %d\nnodes %d\nobjects 2\n"
       (Sys.max_array_length / 2) n)
    [ "line 4" ];
  reject_with "truncated header" "hbn-serve-tables 1\nepochs 1\n" [ "line 3" ];
  reject_with "empty file" "" [ "line 1" ];
  (* Comments and blank lines are the shared file conventions. *)
  let path = Filename.temp_file "hbn_serve_ok" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "# recorded by hand\n\n%se 1 0 %d 4 1  # hot\n"
            head leaf);
      match Serve.load_tables ~tree path with
      | Error m -> Alcotest.failf "commented table file rejected: %s" m
      | Ok ts ->
        Alcotest.(check int) "epochs" 2 (Array.length ts);
        Alcotest.(check int) "reads" 4 (Workload.reads ts.(1) ~obj:0 leaf))

(* -- telemetry batching and reconfiguration counters -------------------- *)

let test_send_many_and_reconfig () =
  let tel = Telemetry.create ~num_edges:3 () in
  Telemetry.begin_round tel ~round:0;
  Telemetry.send_many tel ~edge:1 ~count:5 ~bytes:50;
  Telemetry.send_many tel ~edge:(-1) ~count:2 ~bytes:4;
  Telemetry.send_many tel ~edge:2 ~count:0 ~bytes:0;
  Telemetry.reconfig tel ~replications:2 ~migrations:1 ~contractions:0;
  Telemetry.end_round tel ~live_nodes:9;
  match Telemetry.points tel with
  | [ p ] ->
    Alcotest.(check int) "sent batches" 7 p.Telemetry.sent;
    Alcotest.(check int) "bytes batches" 54 p.Telemetry.bytes;
    Alcotest.(check int) "replications" 2 p.Telemetry.replications;
    Alcotest.(check int) "migrations" 1 p.Telemetry.migrations;
    Alcotest.(check int) "contractions" 0 p.Telemetry.contractions;
    Alcotest.(check bool) "edge table sees the batch" true
      (List.mem_assoc 1 p.Telemetry.edges);
    Alcotest.(check bool) "off-edge traffic stays off the table" false
      (List.mem_assoc 2 p.Telemetry.edges)
  | ps -> Alcotest.failf "expected one point, got %d" (List.length ps)

let test_counter_validation () =
  let tel = Telemetry.create ~num_edges:2 () in
  Telemetry.begin_round tel ~round:0;
  Alcotest.(check bool) "negative count rejected" true
    (raises_invalid (fun () -> Telemetry.send_many tel ~edge:0 ~count:(-1) ~bytes:0));
  Alcotest.(check bool) "negative reconfig rejected" true
    (raises_invalid (fun () ->
         Telemetry.reconfig tel ~replications:(-1) ~migrations:0 ~contractions:0))

(* -- monitor prefixes --------------------------------------------------- *)

let test_monitor_prefix_qualifies_alerts () =
  let m = Monitor.create ~prefix:"serve" () in
  for r = 0 to 19 do
    let v = if r < 12 then 10.0 else 400.0 in
    Monitor.observe m ~series:"sent" ~round:r ~vtime:(float_of_int r) ~span:1 v
  done;
  (match Monitor.alerts m with
  | [] -> Alcotest.fail "the jump must raise an alert"
  | a :: _ ->
    Alcotest.(check string) "alert carries the qualified name" "serve.sent"
      a.Monitor.a_series);
  Alcotest.(check bool) "estimate resolves the bare name" true
    (Monitor.estimate m ~series:"sent" <> None);
  Alcotest.(check bool) "estimate resolves the qualified name" true
    (Monitor.estimate m ~series:"serve.sent" <> None);
  Alcotest.(check bool) "empty prefix rejected" true
    (raises_invalid (fun () -> Monitor.create ~prefix:"" ()))

(* Tracing a run changes nothing it computes, and every epoch shows up
   as one [serve.epoch] span holding its phases and one turnaround
   sample. *)
let test_traced_epochs () =
  let module Sink = Hbn_obs.Sink in
  let untraced = run_kind Drift.Hotspot_migration in
  let sink, read = Sink.memory () in
  let traced =
    Hbn_obs.Trace.with_sink sink (fun () -> run_kind Drift.Hotspot_migration)
  in
  Alcotest.(check bool) "same outcome traced" true
    (fingerprint traced = fingerprint untraced);
  let events = read () in
  let span_ends name =
    List.filter
      (fun (e : Sink.event) ->
        e.Sink.name = name
        && match e.Sink.payload with Sink.Span_end _ -> true | _ -> false)
      events
  in
  let epochs = span_ends "serve.epoch" in
  let epoch_ids = List.map (fun (e : Sink.event) -> e.Sink.id) epochs in
  let n = small_cfg.Serve.epochs in
  Alcotest.(check int) "one span per epoch" n (List.length epochs);
  List.iter
    (fun (name, expected) ->
      let spans = span_ends name in
      Alcotest.(check int) (name ^ " count") expected (List.length spans);
      List.iter
        (fun (e : Sink.event) ->
          Alcotest.(check bool) (name ^ " inside an epoch") true
            (List.mem e.Sink.parent epoch_ids))
        spans)
    [
      ("serve.epoch.engine", n);
      ("serve.epoch.pricing", n);
      ("serve.epoch.oracle", n);
    ];
  Alcotest.(check bool) "a climb span per re-optimization" true
    (List.length (span_ends "serve.epoch.climb")
    >= traced.Serve.reoptimized_epochs
    && traced.Serve.reoptimized_epochs > 0);
  let turnarounds =
    List.filter_map
      (fun (e : Sink.event) ->
        match e.Sink.payload with
        | Sink.Gauge { value } when e.Sink.name = "serve.epoch.turnaround_ms" ->
          Some value
        | _ -> None)
      events
  in
  Alcotest.(check int) "one turnaround per epoch" n (List.length turnarounds);
  Alcotest.(check bool) "turnarounds are durations" true
    (List.for_all (fun v -> v >= 0.) turnarounds)

(* -- hot-object ranking against the attribution oracle ----------------- *)

(* A star whose leaves all read and write every object alike, one copy
   per object on its own leaf: every leaf edge but the copies' carries
   the same load, and objects tie on their totals. *)
let symmetric_star seed =
  let leaves = 3 + (seed mod 5) in
  let tree = Builders.star ~leaves ~profile:(Builders.Uniform 1) in
  let objects = 1 + (seed mod 4) in
  let w = Workload.empty tree ~objects in
  let ls = Tree.leaves_array tree in
  for obj = 0 to objects - 1 do
    Array.iter
      (fun l ->
        Workload.set_read w ~obj l 2;
        Workload.set_write w ~obj l 1)
      ls
  done;
  let copies =
    Array.init objects (fun obj -> [ ls.(obj mod Array.length ls) ])
  in
  (w, copies)

(* Random copy sets over all nodes: some objects copyless (requested or
   not), some with one copy, some with several. *)
let random_engine_copies ~prng w =
  let n = Tree.n (Workload.tree w) in
  Array.init (Workload.num_objects w) (fun _ ->
      match Prng.int prng 4 with
      | 0 -> []
      | 1 -> [ Prng.int prng n ]
      | _ -> List.init (Prng.int_in prng 2 4) (fun _ -> Prng.int prng n))

let prop_hot_objects_match_attribution seed =
  let w, copies =
    if seed mod 3 = 0 then symmetric_star seed
    else
      let _, w = Helpers.shaped_instance seed in
      (w, random_engine_copies ~prng:(Prng.create (seed + 17)) w)
  in
  let eng = Loads.of_copies w copies in
  let ks = [ 1; 2; 3; Workload.num_objects w + 2 ] in
  let same () =
    List.for_all
      (fun k -> Serve.hot_objects eng ~k = Serve_ref.hot_objects eng ~k)
      ks
  in
  let prng = Prng.create (seed + 31) in
  let steps k =
    let ok = ref true in
    for _ = 1 to k do
      if Test_loads.random_nearest_delta ~prng w eng then ok := !ok && same ()
    done;
    !ok
  in
  let ok = same () in
  let cp = Loads.checkpoint eng in
  let ok = ok && steps 6 in
  Loads.rollback eng cp;
  let ok = ok && same () in
  ok && steps 4

let suite =
  [
    Helpers.tc "epoch edge cases" test_epoch_edges;
    Helpers.tc "drift tables deterministic" test_drift_deterministic;
    Helpers.tc "drift kind names round-trip" test_drift_names;
    Helpers.tc "steady workload never re-optimizes" test_steady_stays_put;
    Helpers.tc "migration bytes bounded by budget" test_budget_and_hysteresis_bound;
    Helpers.tc "hotspot migration adapts" test_hotspot_adapts;
    Helpers.tc "record/replay round-trip" test_replay_round_trip;
    Helpers.slow "identical across --jobs 1/2/4" test_jobs_deterministic;
    Helpers.tc "identical across reruns" test_rerun_deterministic;
    Helpers.tc "malformed table files rejected" test_load_tables_rejects_garbage;
    Helpers.tc "send_many and reconfig counters" test_send_many_and_reconfig;
    Helpers.tc "counter validation" test_counter_validation;
    Helpers.tc "monitor prefix qualifies alerts" test_monitor_prefix_qualifies_alerts;
    Helpers.tc "traced epochs: same outcome, one span each" test_traced_epochs;
    Helpers.qt ~count:120 "hot objects match the attribution ranking"
      Helpers.seed_arb prop_hot_objects_match_attribution;
  ]
