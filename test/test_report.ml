(* Tests for the telemetry collector and the offline trace analytics:
   bounded-memory folding invariants, report analyses on a hand-checked
   committed fixture (golden output of `hbn_cli report --format table`),
   renderer validity, and the line-numbered failure contract on
   malformed input. *)

module Sink = Hbn_obs.Sink
module Json = Hbn_obs.Json
module Telemetry = Hbn_obs.Telemetry
module Report = Hbn_obs.Report
module Sim = Hbn_sim.Sim
module Strategy = Hbn_core.Strategy

let fixture = "fixtures/report_fixture.jsonl"
let golden = "fixtures/report_fixture.table"

let read_file path = In_channel.with_open_text path In_channel.input_all

let load_fixture () =
  match Report.load ~path:fixture with
  | Ok r -> r
  | Error m -> Alcotest.failf "fixture does not load: %s" m

(* -- telemetry collector ------------------------------------------------ *)

(* Drives [rounds] synthetic rounds with a skewed edge pattern; returns
   the collector. Deterministic in all arguments. *)
let drive ?capacity ~rounds ~num_edges () =
  let tel = Telemetry.create ?capacity ~num_edges () in
  for r = 1 to rounds do
    Telemetry.begin_round tel ~round:r;
    for e = 0 to num_edges - 1 do
      (* Edge e gets e+1 traversals: a fixed busyness order. *)
      for _ = 1 to e + 1 do
        Telemetry.send tel ~edge:e ~bytes:2
      done
    done;
    Telemetry.send tel ~edge:0 ~bytes:1;
    Telemetry.drop tel;
    if r mod 3 = 0 then Telemetry.retransmit tel;
    if r mod 5 = 0 then Telemetry.duplicate tel;
    Telemetry.end_round tel ~live_nodes:(10 - (r mod 2))
  done;
  tel

let test_telemetry_exact_when_under_capacity () =
  let tel = drive ~rounds:8 ~num_edges:3 () in
  let pts = Telemetry.points tel in
  Alcotest.(check int) "one point per round" 8 (List.length pts);
  Alcotest.(check int) "rounds recorded" 8 (Telemetry.rounds_recorded tel);
  List.iteri
    (fun i (p : Telemetry.point) ->
      Alcotest.(check int) "round" (i + 1) p.Telemetry.round;
      Alcotest.(check int) "span 1" 1 p.Telemetry.rounds;
      (* 1+2+3 per-edge sends plus the dropped extra. *)
      Alcotest.(check int) "sent" 7 p.Telemetry.sent;
      Alcotest.(check int) "dropped" 1 p.Telemetry.dropped;
      Alcotest.(check int) "delivered" 6 p.Telemetry.delivered;
      Alcotest.(check int) "bytes" 13 p.Telemetry.bytes;
      (* Dropped sends still traverse their edge: edge 0 has 1+1=2,
         tying with edge 1; the tie breaks by edge id. *)
      Alcotest.(check (list (pair int int)))
        "edge table: count desc, ties by id"
        [ (2, 3); (0, 2); (1, 2) ]
        p.Telemetry.edges;
      Alcotest.(check int) "no folded remainder" 0 p.Telemetry.other_edges)
    pts

let test_telemetry_folds_at_capacity () =
  let tel = drive ~rounds:100 ~num_edges:4 ~capacity:8 () in
  let pts = Telemetry.points tel in
  Alcotest.(check bool) "bounded" true (List.length pts <= 8);
  Alcotest.(check int) "rounds recorded survives folding" 100
    (Telemetry.rounds_recorded tel);
  (* Folding must conserve every summed counter exactly... *)
  let total f = List.fold_left (fun acc p -> acc + f p) 0 pts in
  Alcotest.(check int) "sent conserved" (100 * 11)
    (total (fun p -> p.Telemetry.sent));
  Alcotest.(check int) "dropped conserved" 100
    (total (fun p -> p.Telemetry.dropped));
  Alcotest.(check int) "bytes conserved" (100 * 21)
    (total (fun p -> p.Telemetry.bytes));
  Alcotest.(check int) "retransmits conserved" 33
    (total (fun p -> p.Telemetry.retransmits));
  Alcotest.(check int) "duplicates conserved" 20
    (total (fun p -> p.Telemetry.dup_suppressed));
  Alcotest.(check int) "edge traversals conserved" (100 * 11)
    (total (fun p ->
         p.Telemetry.other_edges
         + List.fold_left (fun a (_, c) -> a + c) 0 p.Telemetry.edges));
  (* ...cover all rounds with no gaps... *)
  Alcotest.(check int) "round coverage" 100
    (total (fun p -> p.Telemetry.rounds));
  (* ...and take the minimum of live_nodes. *)
  List.iter
    (fun (p : Telemetry.point) ->
      if p.Telemetry.rounds > 1 then
        Alcotest.(check int) "live_nodes folds via min" 9 p.Telemetry.live_nodes)
    pts

let test_telemetry_misuse_raises () =
  let tel = Telemetry.create ~num_edges:2 () in
  Alcotest.check_raises "send outside a round"
    (Invalid_argument "Telemetry.send: no open round") (fun () ->
      Telemetry.send tel ~edge:0 ~bytes:1);
  Telemetry.begin_round tel ~round:5;
  Telemetry.end_round tel ~live_nodes:3;
  Alcotest.check_raises "rounds must increase"
    (Invalid_argument "Telemetry.begin_round: rounds must increase") (fun () ->
      Telemetry.begin_round tel ~round:5)

(* emit -> Sink round trip -> Report.series must agree with the points. *)
let test_telemetry_emit_report_roundtrip () =
  let tel = drive ~rounds:12 ~num_edges:3 () in
  let evs = ref [] in
  Telemetry.emit tel ~prefix:"net" (fun ev -> evs := ev :: !evs);
  let evs = List.rev !evs in
  (* Every emitted event must survive the JSONL codec bit for bit. *)
  List.iter
    (fun ev ->
      match Sink.of_json (Sink.to_json ev) with
      | Ok ev' when ev = ev' -> ()
      | Ok _ -> Alcotest.failf "series codec mismatch: %s" (Sink.to_json ev)
      | Error m -> Alcotest.failf "series unparseable: %s" m)
    evs;
  let r = Report.of_events evs in
  let find name =
    match List.find_opt (fun s -> s.Report.s_name = name) (Report.series r) with
    | Some s -> s
    | None -> Alcotest.failf "missing series %s" name
  in
  let sent = find "net.sent" in
  Alcotest.(check int) "sent total" (12 * 7) sent.Report.total;
  Alcotest.(check int) "sent points" 12 sent.Report.points;
  Alcotest.(check int) "rounds 1..12" 1 sent.Report.first_round;
  Alcotest.(check int) "rounds 1..12" 12 sent.Report.last_round;
  let dropped = find "net.dropped" in
  Alcotest.(check int) "dropped total" 12 dropped.Report.total;
  (* Per-edge totals flow into hottest_edges; order is count desc,
     ties by edge id (edges 0 and 1 both total 24; 0 wins the tie). *)
  match Array.to_list (Report.hottest_edges ~top:2 r) with
  | [ (e1, t1, _); (e2, t2, _) ] ->
    Alcotest.(check int) "hottest edge is 2" 2 e1;
    Alcotest.(check int) "edge 2 total" (12 * 3) t1;
    Alcotest.(check int) "second is edge 0 by tie-break" 0 e2;
    Alcotest.(check int) "edge 0 total" (12 * 2) t2
  | l -> Alcotest.failf "expected 2 hottest edges, got %d" (List.length l)

(* Bit-identical series from identical runs — the acceptance criterion,
   at the library level (the CLI test covers --jobs). *)
let test_telemetry_deterministic_across_runs () =
  let emit_run () =
    let _, w = Helpers.instance 4242 in
    let res = Strategy.run w in
    let tel =
      Telemetry.create
        ~num_edges:(Hbn_tree.Tree.num_edges (Hbn_workload.Workload.tree w))
        ()
    in
    ignore (Sim.run ~telemetry:tel w res.Strategy.placement);
    let buf = Buffer.create 256 in
    Telemetry.emit tel ~prefix:"sim" (fun ev ->
        Buffer.add_string buf (Sink.to_json ev);
        Buffer.add_char buf '\n');
    Buffer.contents buf
  in
  Alcotest.(check string) "identical series" (emit_run ()) (emit_run ())

(* The virtual-time axis: points carry the engine clock, folding keeps
   the later point's position on both axes and conserves totals, and a
   non-increasing clock is rejected. *)
let test_telemetry_vtime_axis () =
  let drive_vtime ?capacity ~rounds () =
    let tel = Telemetry.create ?capacity ~num_edges:2 () in
    for r = 1 to rounds do
      (* An async engine's ticks: 1.5 virtual time per round. *)
      Telemetry.begin_round ~vtime:(1.5 *. float_of_int r) tel ~round:r;
      Telemetry.send tel ~edge:0 ~bytes:3;
      Telemetry.end_round tel ~live_nodes:4
    done;
    tel
  in
  let exact = Telemetry.points (drive_vtime ~rounds:6 ()) in
  List.iteri
    (fun i (p : Telemetry.point) ->
      Alcotest.(check (float 0.))
        "vtime follows the clock"
        (1.5 *. float_of_int (i + 1))
        p.Telemetry.vtime)
    exact;
  let folded = Telemetry.points (drive_vtime ~capacity:4 ~rounds:32 ()) in
  Alcotest.(check bool) "bounded" true (List.length folded <= 4);
  Alcotest.(check int) "sends conserved across vtime folding" 32
    (List.fold_left (fun a p -> a + p.Telemetry.sent) 0 folded);
  Alcotest.(check int) "round coverage" 32
    (List.fold_left (fun a p -> a + p.Telemetry.rounds) 0 folded);
  List.iter
    (fun (p : Telemetry.point) ->
      Alcotest.(check (float 0.))
        "a bucket sits at its last round's clock"
        (1.5 *. float_of_int p.Telemetry.round)
        p.Telemetry.vtime)
    folded;
  let tel = Telemetry.create ~num_edges:1 () in
  Telemetry.begin_round ~vtime:3. tel ~round:1;
  Telemetry.end_round tel ~live_nodes:1;
  Alcotest.check_raises "virtual time must increase"
    (Invalid_argument "Telemetry.begin_round: virtual time must increase")
    (fun () -> Telemetry.begin_round ~vtime:3. tel ~round:2)

(* -- report analyses on the fixture ------------------------------------- *)

let test_report_fixture_phases () =
  let r = load_fixture () in
  (match Report.phases r with
  | p :: _ ->
    Alcotest.(check string) "heaviest phase" "strategy.run" p.Report.name;
    Alcotest.(check int64) "total" 5_000_000L p.Report.total_ns;
    (* 5ms minus the 2+0.5+1.5ms children. *)
    Alcotest.(check int64) "self" 1_000_000L p.Report.self_ns
  | [] -> Alcotest.fail "no phases");
  match Report.critical_path r with
  | [ ("strategy.run", 5_000_000L); ("strategy.nibble", 2_000_000L) ] -> ()
  | path ->
    Alcotest.failf "unexpected critical path: %s"
      (String.concat " -> " (List.map fst path))

let test_report_golden_table () =
  (* The committed golden file pins the exact rendering; regenerate with
     `hbn_cli report test/fixtures/report_fixture.jsonl > .../report_fixture.table`
     after an intentional format change. *)
  let r = load_fixture () in
  Alcotest.(check string) "table matches golden" (read_file golden)
    (Report.to_table r)

let test_report_json_is_valid () =
  let r = load_fixture () in
  match Json.parse_result (Report.to_json r) with
  | Error m -> Alcotest.failf "report JSON unparseable: %s" m
  | Ok doc ->
    Alcotest.(check (option string))
      "schema tag" (Some "hbn.report/v1")
      (Option.bind (Json.member "schema" doc) Json.to_string);
    let arr name =
      match Option.bind (Json.member name doc) Json.to_list with
      | Some l -> l
      | None -> Alcotest.failf "missing %s array" name
    in
    Alcotest.(check int) "5 phases" 5 (List.length (arr "phases"));
    Alcotest.(check int) "2 series" 2 (List.length (arr "series"));
    Alcotest.(check int) "3 edges" 3 (List.length (arr "hottest_edges"))

let test_report_chrome_is_valid () =
  let r = load_fixture () in
  match Json.parse_result (Report.to_chrome r) with
  | Error m -> Alcotest.failf "chrome JSON unparseable: %s" m
  | Ok doc -> (
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | None -> Alcotest.fail "no traceEvents array"
    | Some evs ->
      let phase ev =
        match Option.bind (Json.member "ph" ev) Json.to_string with
        | Some p -> p
        | None -> Alcotest.fail "event without ph"
      in
      let count p = List.length (List.filter (fun e -> phase e = p) evs) in
      Alcotest.(check int) "one X event per closed span" 5 (count "X");
      Alcotest.(check int) "one C event per series point" 9 (count "C");
      Alcotest.(check int) "one i event per fault" 3 (count "i");
      (* The reconstructed timeline keeps children inside their parent:
         every X event fits within some root's [ts, ts+dur]. *)
      let xs =
        List.filter_map
          (fun e ->
            if phase e <> "X" then None
            else
              match
                ( Option.bind (Json.member "ts" e) Json.to_float,
                  Option.bind (Json.member "dur" e) Json.to_float )
              with
              | Some ts, Some dur -> Some (ts, dur)
              | _ -> Alcotest.fail "X event without ts/dur")
          evs
      in
      let max_end =
        List.fold_left (fun acc (ts, dur) -> Float.max acc (ts +. dur)) 0. xs
      in
      (* Roots are 5ms + 3ms laid end to end. *)
      Alcotest.(check (float 1e-6)) "timeline spans both roots" 8000. max_end)

let test_report_empty_trace () =
  let r = Report.of_events [] in
  Alcotest.(check int) "no phases" 0 (List.length (Report.phases r));
  Alcotest.(check int) "no series" 0 (List.length (Report.series r));
  Alcotest.(check int) "no edges" 0 (Array.length (Report.hottest_edges r));
  Alcotest.(check bool) "critical path empty" true (Report.critical_path r = []);
  (* Renderers must not blow up on nothing. *)
  ignore (Report.to_table r);
  (match Json.parse_result (Report.to_json r) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "empty-report JSON invalid: %s" m);
  match Json.parse_result (Report.to_chrome r) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "empty-report chrome JSON invalid: %s" m

(* A span whose end never arrived (truncated trace) still anchors its
   children but contributes no durations anywhere. *)
let test_report_tolerates_unclosed_spans () =
  let ev name id parent payload =
    { Sink.name; id; parent; payload; attrs = [] }
  in
  let r =
    Report.of_events
      [
        ev "outer" 1 0 Sink.Span_start;
        ev "inner" 2 1 Sink.Span_start;
        ev "inner" 2 1 (Sink.Span_end { duration_ns = 1000L });
      ]
  in
  (match Report.phases r with
  | [ p ] ->
    Alcotest.(check string) "only the closed span" "inner" p.Report.name
  | l -> Alcotest.failf "expected 1 phase, got %d" (List.length l));
  match Report.critical_path r with
  | [] -> ()
  | _ -> Alcotest.fail "open root must not start a critical path"

let test_report_malformed_line_number () =
  let path = Filename.temp_file "hbn_report" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "{\"ev\":\"point\",\"name\":\"ok\",\"id\":0,\"parent\":0,\"attrs\":{}}\n\
     {\"ev\":\"point\",\"name\":\"ok\",\"id\":0,\"parent\":0,\"attrs\":{}}\n\
     {\"ev\":\"broken\n";
  close_out oc;
  (match Report.load ~path with
  | Ok _ -> Alcotest.fail "malformed trace loaded"
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names line 3" m)
      true
      (Helpers.contains m (path ^ ":3:")));
  Sys.remove path

let test_report_missing_file () =
  match Report.load ~path:"/nonexistent/nope.jsonl" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

(* -- vtime in series summaries, unknown kinds, alert rollups ------------ *)

let emit_events tel ~prefix =
  let evs = ref [] in
  Telemetry.emit tel ~prefix (fun ev -> evs := ev :: !evs);
  List.rev !evs

let find_series r name =
  match List.find_opt (fun s -> s.Report.s_name = name) (Report.series r) with
  | Some s -> s
  | None -> Alcotest.failf "missing series %s" name

let test_report_series_carry_vtime () =
  (* Sync axis: virtual time defaults to the round number... *)
  let r =
    Report.of_events (emit_events (drive ~rounds:6 ~num_edges:2 ()) ~prefix:"s")
  in
  let sent = find_series r "s.sent" in
  Alcotest.(check (float 0.)) "sync first_time" 1. sent.Report.first_time;
  Alcotest.(check (float 0.)) "sync last_time" 6. sent.Report.last_time;
  (* ...while an async engine's clock flows through emit into the
     summary, so the table's vtime column shows real virtual time. *)
  let tel = Telemetry.create ~num_edges:1 () in
  for rd = 1 to 6 do
    Telemetry.begin_round ~vtime:(1.5 *. float_of_int rd) tel ~round:rd;
    Telemetry.send tel ~edge:0 ~bytes:2;
    Telemetry.end_round tel ~live_nodes:3
  done;
  let r = Report.of_events (emit_events tel ~prefix:"a") in
  let sent = find_series r "a.sent" in
  Alcotest.(check (float 1e-9)) "vtime first" 1.5 sent.Report.first_time;
  Alcotest.(check (float 1e-9)) "vtime last" 9. sent.Report.last_time;
  Alcotest.(check bool) "table shows the vtime range" true
    (Helpers.contains (Report.to_table r) "1.5-9")

(* Forward compatibility: a valid JSON line whose ["ev"] tag is unknown
   is skipped and counted, not fatal — a kind from a newer writer, or a
   [histogram] summary that older traces carry and the codec no longer
   decodes. A malformed *known* event still fails the load with its line
   number. *)
let test_report_unknown_kind_skipped () =
  let write lines =
    let path = Filename.temp_file "hbn_report" ".jsonl" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    path
  in
  let path =
    write
      [
        "{\"ev\":\"point\",\"name\":\"ok\",\"id\":0,\"parent\":0,\"attrs\":{}}";
        "{\"ev\":\"hologram\",\"name\":\"from the future\",\"payload\":[1,2]}";
        "{\"ev\":\"point\",\"name\":\"ok\",\"id\":0,\"parent\":0,\"attrs\":{}}";
        "{\"ev\":\"histogram\",\"name\":\"lat\",\"id\":0,\"parent\":0,\"count\":2,\"mean\":1,\"min\":0.5,\"max\":1.5,\"p50\":1,\"p95\":1.45,\"attrs\":{}}";
      ]
  in
  (match Report.load ~path with
  | Error m -> Alcotest.failf "forward-compatible load failed: %s" m
  | Ok r ->
    Alcotest.(check int) "both known events kept" 2
      (List.length (Report.events r));
    Alcotest.(check int) "both unknown lines counted" 2
      (Report.unknown_events r);
    Alcotest.(check bool) "table reports the skip count" true
      (Helpers.contains (Report.to_table r) "(2 of unknown kind skipped)"));
  Sys.remove path;
  let path =
    write
      [ "{\"ev\":\"hologram\",\"name\":\"fine\"}"; "{\"ev\":\"point\",\"name\":3}" ]
  in
  (match Report.load ~path with
  | Ok _ -> Alcotest.fail "malformed known event loaded"
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names line 2" m)
      true
      (Helpers.contains m (path ^ ":2:")));
  Sys.remove path

let alert_ev ~round ~series ~kind ~magnitude =
  {
    Sink.name = "monitor.alert";
    id = 0;
    parent = 0;
    attrs = [];
    payload =
      Sink.Alert { round; time = float_of_int round; series; kind; magnitude };
  }

let test_report_alert_summaries () =
  let r =
    Report.of_events
      [
        alert_ev ~round:9 ~series:"sent" ~kind:"cusum_up" ~magnitude:2.5;
        alert_ev ~round:14 ~series:"sent" ~kind:"cusum_up" ~magnitude:4.25;
        alert_ev ~round:11 ~series:"sent" ~kind:"ph_up" ~magnitude:1.5;
        alert_ev ~round:30 ~series:"dropped" ~kind:"cusum_up" ~magnitude:9.;
      ]
  in
  (match Report.alert_summaries r with
  | [ a; b; c ] ->
    Alcotest.(check string) "series order" "dropped" a.Report.al_series;
    Alcotest.(check string) "kind within series" "cusum_up" b.Report.al_kind;
    Alcotest.(check int) "grouped count" 2 b.Report.al_count;
    Alcotest.(check int) "first round" 9 b.Report.al_first_round;
    Alcotest.(check int) "last round" 14 b.Report.al_last_round;
    Alcotest.(check (float 0.)) "max magnitude" 4.25 b.Report.al_max_magnitude;
    Alcotest.(check string) "ph after cusum" "ph_up" c.Report.al_kind
  | l -> Alcotest.failf "expected 3 alert summaries, got %d" (List.length l));
  Alcotest.(check bool) "table has the alerts section" true
    (Helpers.contains (Report.to_table r) "alerts (change-point detections)")

(* -- trace diffing ------------------------------------------------------ *)

(* Constant level [base] until round 60, then [late]: zero jitter keeps
   the steady case under the detectors' sigma floor, so the diff's
   alert sets are a pure function of the level shift. *)
let drive_step ~rounds ~base ~late () =
  let tel = Telemetry.create ~num_edges:1 () in
  for rd = 1 to rounds do
    Telemetry.begin_round tel ~round:rd;
    for _ = 1 to if rd <= 60 then base else late do
      Telemetry.send tel ~edge:0 ~bytes:1
    done;
    Telemetry.end_round tel ~live_nodes:4
  done;
  Report.of_events (emit_events tel ~prefix:"t")

let test_report_self_diff_is_clean () =
  let r = drive_step ~rounds:120 ~base:40 ~late:40 () in
  let d = Report.diff ~base:r ~cur:r in
  Alcotest.(check bool) "clean" true (Report.diff_clean d);
  Alcotest.(check int) "no changed series" 0 d.Report.d_changed;
  Alcotest.(check int) "no new alerts" 0 (List.length d.Report.d_new_alerts);
  Alcotest.(check int) "no resolved alerts" 0
    (List.length d.Report.d_gone_alerts);
  Alcotest.(check bool) "table says identical" true
    (Helpers.contains (Report.diff_to_table d)
       "verdict: identical — every series and alert matches");
  match Json.parse_result (Report.diff_to_json d) with
  | Error m -> Alcotest.failf "diff JSON unparseable: %s" m
  | Ok doc ->
    Alcotest.(check (option string))
      "schema tag" (Some "hbn.diff/v1")
      (Option.bind (Json.member "schema" doc) Json.to_string);
    Alcotest.(check bool) "clean flag" true
      (Json.member "clean" doc = Some (Json.Bool true))

let test_report_diff_flags_a_regression () =
  let base = drive_step ~rounds:120 ~base:40 ~late:40 () in
  let cur = drive_step ~rounds:120 ~base:40 ~late:80 () in
  let d = Report.diff ~base ~cur in
  Alcotest.(check bool) "not clean" false (Report.diff_clean d);
  Alcotest.(check bool) "changed series counted" true (d.Report.d_changed > 0);
  (* The step fires detectors only on the current side. *)
  Alcotest.(check int) "baseline is silent" 0
    (List.length d.Report.d_base_alerts);
  Alcotest.(check bool) "new alerts surfaced" true
    (d.Report.d_new_alerts <> []);
  let tbl = Report.diff_to_table d in
  Alcotest.(check bool) "changed rows are starred" true
    (Helpers.contains tbl "*");
  Alcotest.(check bool) "verdict is not identical" false
    (Helpers.contains tbl "verdict: identical");
  (* Swapping sides turns new alerts into resolved ones. *)
  let d' = Report.diff ~base:cur ~cur:base in
  Alcotest.(check int) "alerts resolve on the flipped diff"
    (List.length d.Report.d_new_alerts)
    (List.length d'.Report.d_gone_alerts)

let suite =
  [
    Helpers.tc "telemetry exact under capacity"
      test_telemetry_exact_when_under_capacity;
    Helpers.tc "telemetry folds at capacity, conserving totals"
      test_telemetry_folds_at_capacity;
    Helpers.tc "telemetry misuse raises" test_telemetry_misuse_raises;
    Helpers.tc "telemetry -> emit -> report round trip"
      test_telemetry_emit_report_roundtrip;
    Helpers.tc "telemetry series deterministic across runs"
      test_telemetry_deterministic_across_runs;
    Helpers.tc "telemetry virtual-time axis" test_telemetry_vtime_axis;
    Helpers.tc "report fixture phases and critical path"
      test_report_fixture_phases;
    Helpers.tc "report table matches committed golden" test_report_golden_table;
    Helpers.tc "report JSON is valid and tagged" test_report_json_is_valid;
    Helpers.tc "report chrome JSON is valid" test_report_chrome_is_valid;
    Helpers.tc "report on an empty trace" test_report_empty_trace;
    Helpers.tc "report tolerates unclosed spans"
      test_report_tolerates_unclosed_spans;
    Helpers.tc "report fails with a line number on malformed input"
      test_report_malformed_line_number;
    Helpers.tc "report fails on a missing file" test_report_missing_file;
    Helpers.tc "report series summaries carry virtual time"
      test_report_series_carry_vtime;
    Helpers.tc "report skips unknown event kinds with a count"
      test_report_unknown_kind_skipped;
    Helpers.tc "report aggregates alerts by series and kind"
      test_report_alert_summaries;
    Helpers.tc "report self-diff is exactly clean" test_report_self_diff_is_clean;
    Helpers.tc "report diff flags a regression" test_report_diff_flags_a_regression;
  ]
