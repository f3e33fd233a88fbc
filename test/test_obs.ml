(* Tests for the observability layer: span nesting, metric aggregation,
   JSONL round-tripping, and — crucially — that tracing is purely an
   observer: the strategy computes byte-identical results with tracing
   on, off, or absent, and no sink code runs while disabled. *)

module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Metrics = Hbn_obs.Metrics
module Strategy = Hbn_core.Strategy

let events_of f =
  let sink, read = Sink.memory () in
  Trace.with_sink sink f;
  read ()

let name_of (ev : Sink.event) = ev.Sink.name

let test_span_nesting () =
  let events =
    events_of (fun () ->
        let a = Trace.span "a" in
        let b = Trace.span "b" ~attrs:[ ("k", Sink.Int 1) ] in
        Trace.event "inside-b";
        Trace.finish b;
        let c = Trace.span "c" in
        Trace.finish c;
        Trace.finish a ~attrs:[ ("done", Sink.Bool true) ])
  in
  Alcotest.(check (list string))
    "emission order"
    [ "a"; "b"; "inside-b"; "b"; "c"; "c"; "a" ]
    (List.map name_of events);
  let find name payload_pred =
    List.find
      (fun (ev : Sink.event) ->
        ev.Sink.name = name && payload_pred ev.Sink.payload)
      events
  in
  let is_start = function Sink.Span_start -> true | _ -> false in
  let is_end = function Sink.Span_end _ -> true | _ -> false in
  let a_start = find "a" is_start
  and b_start = find "b" is_start
  and c_start = find "c" is_start
  and point = find "inside-b" (fun p -> p = Sink.Point) in
  Alcotest.(check int) "a is a root span" 0 a_start.Sink.parent;
  Alcotest.(check int) "b nests in a" a_start.Sink.id b_start.Sink.parent;
  Alcotest.(check int) "c nests in a" a_start.Sink.id c_start.Sink.parent;
  Alcotest.(check int) "point nests in b" b_start.Sink.id point.Sink.parent;
  List.iter
    (fun name ->
      match (find name is_end).Sink.payload with
      | Sink.Span_end { duration_ns } ->
        Alcotest.(check bool) (name ^ " duration >= 0") true (duration_ns >= 0L)
      | _ -> assert false)
    [ "a"; "b"; "c" ]

let test_counter_aggregation () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.incr ~by:41 m "x";
  Metrics.incr ~by:7 m "y";
  Alcotest.(check int) "x total" 42 (Metrics.counter_value m "x");
  Alcotest.(check int) "y total" 7 (Metrics.counter_value m "y");
  Alcotest.(check int) "absent is 0" 0 (Metrics.counter_value m "z");
  Alcotest.(check (list (pair string int)))
    "sorted snapshot" [ ("x", 42); ("y", 7) ] (Metrics.counters m);
  Metrics.reset m;
  Alcotest.(check (list (pair string int))) "reset" [] (Metrics.counters m)

(* with_attrs decorates every event on the emitting side; explicit
   attributes win on duplicate keys because they come first. *)
let test_with_attrs_tags_events () =
  let mem, read = Sink.memory () in
  let tagged = Sink.with_attrs (fun () -> [ ("domain", Sink.Int 3) ]) mem in
  Trace.with_sink tagged (fun () ->
      Trace.event "plain";
      Trace.event "clash" ~attrs:[ ("domain", Sink.Int 9) ]);
  match read () with
  | [ plain; clash ] ->
    Alcotest.(check bool) "tag appended" true
      (List.mem ("domain", Sink.Int 3) plain.Sink.attrs);
    Alcotest.(check bool) "explicit attr first" true
      (List.assoc "domain" clash.Sink.attrs = Sink.Int 9)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* Counters aggregate in the registry; a gauge only streams, so a final
   [Metrics.emit] adds no second copy of its sample. *)
let test_trace_count_feeds_global () =
  Metrics.reset Metrics.global;
  let sink, read = Sink.memory () in
  Trace.with_sink sink (fun () ->
      Trace.count "c";
      Trace.count ~by:4 "c";
      Trace.gauge "g" 3.25;
      Metrics.emit Metrics.global sink);
  Alcotest.(check int) "aggregated" 5 (Metrics.counter_value Metrics.global "c");
  let gauges =
    List.filter_map
      (fun (ev : Sink.event) ->
        match ev.Sink.payload with
        | Sink.Gauge { value } -> Some (ev.Sink.name, value)
        | _ -> None)
      (read ())
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge streamed once" [ ("g", 3.25) ] gauges;
  Metrics.reset Metrics.global

let test_disabled_is_inert () =
  Alcotest.(check bool) "tracing off" false (Trace.enabled ());
  Metrics.reset Metrics.global;
  (* None of these may touch the global registry or blow up. *)
  let sp = Trace.span "ghost" ~attrs:[ ("k", Sink.Int 1) ] in
  Trace.event "ghost-event";
  Trace.count ~by:100 "ghost-counter";
  Trace.gauge "ghost-gauge" 1.0;
  Trace.finish sp;
  Trace.finish Trace.none;
  Trace.flush ();
  Alcotest.(check int) "no counter recorded" 0
    (Metrics.counter_value Metrics.global "ghost-counter");
  Alcotest.(check (list (pair string int)))
    "registry empty" [] (Metrics.counters Metrics.global)

(* Exercise every payload kind and every attribute type through the JSONL
   writer and back through the parser. *)
let test_jsonl_roundtrip () =
  let sink_mem, read = Sink.memory () in
  let path = Filename.temp_file "hbn_obs" ".jsonl" in
  let oc = open_out path in
  let tee = Sink.tee (Sink.jsonl oc) sink_mem in
  Trace.with_sink tee (fun () ->
      let sp =
        Trace.span "phase"
          ~attrs:
            [
              ("int", Sink.Int (-3));
              ("float", Sink.Float 0.1);
              ("whole", Sink.Float 2.0);
              ("str", Sink.Str "quote \" backslash \\ newline \n tab \t");
              ("bool", Sink.Bool false);
            ]
      in
      Trace.event "tick" ~attrs:[ ("huge", Sink.Int max_int) ];
      Trace.gauge "depth" 17.25;
      Trace.finish sp ~attrs:[ ("ratio", Sink.Float 1.6180339887498949) ];
      let m = Metrics.create () in
      Metrics.incr ~by:9 m "events";
      (* Counter snapshot events also flow through the codec. *)
      Metrics.emit m tee;
      (* No library code emits attribution cells, but the codec still
         reads and writes them. *)
      Trace.emit
        {
          Sink.name = "attribution";
          id = 0;
          parent = 0;
          payload =
            Sink.Attribution
              { edge = 4; obj = 11; component = "write_steiner"; amount = 23 };
          attrs = [ ("phase", Sink.Str "final") ];
        };
      Alcotest.(check bool) "tracing on" true (Trace.enabled ());
      Trace.flush ());
  close_out oc;
  let expected = read () in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed =
    List.rev_map
      (fun line ->
        match Sink.of_json line with
        | Ok ev -> ev
        | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg)
      !lines
  in
  Alcotest.(check int) "event count" (List.length expected) (List.length parsed);
  List.iter2
    (fun (a : Sink.event) (b : Sink.event) ->
      if a <> b then
        Alcotest.failf "round trip mismatch:\n%s\n%s" (Sink.to_json a)
          (Sink.to_json b))
    expected parsed

let test_json_rejects_garbage () =
  List.iter
    (fun line ->
      match Sink.of_json line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "";
      "not json";
      "{\"ev\":\"span_start\"}";
      "{\"ev\":\"teleport\",\"name\":\"x\",\"id\":1,\"parent\":0,\"attrs\":{}}";
      "{\"ev\":\"point\",\"name\":\"x\",\"id\":0,\"parent\":0,\"attrs\":{}} trailing";
    ]

let test_fault_event_roundtrips () =
  (* One of each fault shape, including the -1 "not applicable" markers
     the runtime uses for node-only and edge-only faults. *)
  List.iter
    (fun payload ->
      let ev =
        {
          Sink.name = "runtime.fault";
          id = 0;
          parent = 0;
          payload;
          attrs = [ ("plan_seed", Sink.Int 9) ];
        }
      in
      match Sink.of_json (Sink.to_json ev) with
      | Ok ev' ->
        if ev <> ev' then
          Alcotest.failf "fault round trip mismatch: %s" (Sink.to_json ev)
      | Error m -> Alcotest.failf "fault event unparseable: %s" m)
    [
      Sink.Fault { round = 7; fault = "dropped"; node = 2; edge = 3 };
      Sink.Fault { round = 1; fault = "crashed"; node = 4; edge = -1 };
      Sink.Fault { round = 12; fault = "restored"; node = -1; edge = 0 };
    ]

(* Random Series events through the codec: the telemetry emitter is the
   only producer, but the parser must accept the full field space. *)
let series_event_arb =
  let open QCheck in
  let gen =
    Gen.map
      (fun (name, round, time, span, value, edge) ->
        {
          Sink.name;
          id = 0;
          parent = 0;
          payload = Sink.Series { round; time; span; value; edge };
          attrs = [];
        })
      Gen.(
        tup6
          (oneofl [ "sim.sent"; "dist.edge"; "x.bytes"; "weird \"name\"\n" ])
          (int_bound 100_000)
          (map (fun t -> float_of_int t /. 16.) (int_bound 1_600_000))
          (int_range 1 4096) int (int_range (-1) 500))
  in
  make ~print:Sink.to_json gen

let prop_series_roundtrip ev =
  match Sink.of_json (Sink.to_json ev) with
  | Ok ev' -> ev = ev'
  | Error _ -> false

(* Random Alert events through the codec — the monitor's sink_event is
   the only producer, but the parser must accept arbitrary series names
   (including ones needing escapes), detector kinds and magnitudes, and
   reproduce every field byte for byte. *)
let alert_event_arb =
  let open QCheck in
  let gen =
    Gen.map
      (fun (round, time, series, kind, magnitude) ->
        {
          Sink.name = "monitor.alert";
          id = 0;
          parent = 0;
          payload = Sink.Alert { round; time; series; kind; magnitude };
          attrs = [];
        })
      Gen.(
        tup5 (int_bound 100_000)
          (map (fun t -> float_of_int t /. 16.) (int_bound 1_600_000))
          (oneofl
             [ "sent"; "dist.retransmits"; "edge_peak"; "odd \"series\"\t" ])
          (oneofl
             [ "cusum_up"; "cusum_down"; "page_hinkley_up"; "page_hinkley_down" ])
          (map (fun m -> float_of_int m /. 64.) (int_bound 1_000_000)))
  in
  make ~print:Sink.to_json gen

let prop_alert_roundtrip ev =
  (* Byte identity, not just structural: re-rendering the re-parsed
     event must give the same JSONL line. *)
  match Sink.of_json (Sink.to_json ev) with
  | Ok ev' -> ev = ev' && Sink.to_json ev' = Sink.to_json ev
  | Error _ -> false

let test_nan_gauge_roundtrips () =
  let ev =
    {
      Sink.name = "g";
      id = 0;
      parent = 0;
      payload = Sink.Gauge { value = Float.nan };
      attrs = [];
    }
  in
  match Sink.of_json (Sink.to_json ev) with
  | Ok { Sink.payload = Sink.Gauge { value }; _ } ->
    Alcotest.(check bool) "nan round-trips" true (Float.is_nan value)
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error msg -> Alcotest.fail msg

let strategy_fingerprint w (res : Strategy.result) =
  ( res.Strategy.placement,
    Strategy.nibble_placement w res,
    Strategy.modified_placement w res,
    res.Strategy.tau_max,
    res.Strategy.deletions,
    res.Strategy.splits,
    res.Strategy.mapped_objects )

let prop_tracing_does_not_change_results seed =
  let _, w = Helpers.instance seed in
  let off = Strategy.run w in
  let sink, _ = Sink.memory () in
  let on = Trace.with_sink sink (fun () -> Strategy.run w) in
  let off2 = Strategy.run w in
  strategy_fingerprint w off = strategy_fingerprint w on
  && strategy_fingerprint w off = strategy_fingerprint w off2

(* The full pipeline trace of an instance that actually needs Step 3:
   spans for all three steps plus per-round mapping events must appear. *)
let test_strategy_trace_shape () =
  let rec find seed =
    let _, w = Helpers.instance seed in
    let res = Strategy.run w in
    if res.Strategy.tau_max > 0 then w else find (seed + 1)
  in
  let w = find 1 in
  let events = events_of (fun () -> ignore (Strategy.run w)) in
  let ends name =
    List.exists
      (fun (ev : Sink.event) ->
        ev.Sink.name = name
        && match ev.Sink.payload with Sink.Span_end _ -> true | _ -> false)
      events
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " span closed") true (ends name))
    [ "strategy.run"; "strategy.nibble"; "strategy.deletion"; "strategy.mapping" ];
  let rounds =
    List.filter (fun ev -> name_of ev = "mapping.round") events
  in
  Alcotest.(check bool) "mapping rounds recorded" true (List.length rounds >= 2);
  Alcotest.(check bool) "deletion.object events" true
    (List.exists (fun ev -> name_of ev = "deletion.object") events);
  (* Tracing streams spans, events and counters only: no attribution
     table is built or emitted along the way. *)
  Alcotest.(check int) "no attribution events" 0
    (List.length
       (List.filter
          (fun (ev : Sink.event) ->
            match ev.Sink.payload with Sink.Attribution _ -> true | _ -> false)
          events))

let suite =
  [
    Helpers.tc "span nesting and durations" test_span_nesting;
    Helpers.tc "counter aggregation" test_counter_aggregation;
    Helpers.tc "with_attrs tags every event" test_with_attrs_tags_events;
    Helpers.tc "Trace.count feeds the global registry" test_trace_count_feeds_global;
    Helpers.tc "disabled tracer is inert" test_disabled_is_inert;
    Helpers.tc "JSONL round trip" test_jsonl_roundtrip;
    Helpers.tc "parser rejects garbage" test_json_rejects_garbage;
    Helpers.tc "nan gauge round-trips" test_nan_gauge_roundtrips;
    Helpers.tc "fault events round-trip" test_fault_event_roundtrips;
    Helpers.qt ~count:200 "series events round-trip" series_event_arb
      prop_series_roundtrip;
    Helpers.qt ~count:200 "alert events round-trip byte for byte"
      alert_event_arb prop_alert_roundtrip;
    Helpers.tc "strategy trace has all three steps" test_strategy_trace_shape;
    Helpers.qt ~count:60 "tracing never changes strategy results"
      Helpers.seed_arb prop_tracing_does_not_change_results;
  ]
