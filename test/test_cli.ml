(* Integration tests driving the built CLI binary end-to-end. *)

module Sink = Hbn_obs.Sink

let cli_path () =
  (* test_main.exe lives in _build/default/test/; the CLI next door. *)
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/hbn_cli.exe" in
  if Sys.file_exists candidate then Some candidate else None

let run_cli_cmd cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let run_cli args =
  match cli_path () with
  | None -> None
  | Some bin -> Some (run_cli_cmd (Filename.quote_command bin args))

(* Like [run_cli] but folds stderr into the captured output — failure
   tests check the diagnostic text. *)
let run_cli_merged args =
  match cli_path () with
  | None -> None
  | Some bin -> Some (run_cli_cmd (Filename.quote_command bin args ^ " 2>&1"))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_run name args expectations =
  match run_cli args with
  | None -> () (* binary not built in this configuration; skip *)
  | Some (status, out) ->
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "%s: non-zero exit\n%s" name out);
    List.iter
      (fun sub ->
        if not (contains out sub) then
          Alcotest.failf "%s: missing %S in output:\n%s" name sub out)
      expectations

let check_fails name args expectations =
  match run_cli_merged args with
  | None -> ()
  | Some (status, out) ->
    (match status with
    | Unix.WEXITED 0 ->
      Alcotest.failf "%s: expected a failing exit, got 0\n%s" name out
    | Unix.WEXITED _ -> ()
    | _ -> Alcotest.failf "%s: killed by a signal" name);
    List.iter
      (fun sub ->
        if not (contains out sub) then
          Alcotest.failf "%s: missing %S in output:\n%s" name sub out)
      expectations

let test_topology () =
  check_run "topology"
    [ "topology"; "--kind"; "star"; "--leaves"; "4" ]
    [ "5 nodes (4 processors, 1 buses)"; "paper assumptions: ok" ]

let test_topology_dot () =
  check_run "topology --dot"
    [ "topology"; "--kind"; "star"; "--leaves"; "3"; "--dot" ]
    [ "graph hbn {"; "shape=box" ]

let test_place () =
  check_run "place"
    [ "place"; "--kind"; "balanced"; "--arity"; "2"; "--height"; "2";
      "--objects"; "4"; "--workload"; "hotspot"; "--seed"; "7" ]
    [ "congestion:"; "certificates: all hold" ]

let test_place_deterministic () =
  let args =
    [ "place"; "--kind"; "random"; "--buses"; "4"; "--leaves"; "8";
      "--objects"; "5"; "--seed"; "99" ]
  in
  match (run_cli args, run_cli args) with
  | Some (_, a), Some (_, b) ->
    Alcotest.(check string) "identical output" a b
  | _ -> ()

(* Capacities the eviction pass cannot meet are reported on stdout and
   the run goes on with the unconstrained placement (exit 0); a
   negative capacity takes the same path instead of escaping as an
   exception. *)
let test_place_capacity_infeasible () =
  let place cap =
    [ "place"; "--kind"; "star"; "--leaves"; "4"; "--objects"; "8";
      "--capacity=" ^ cap ]
  in
  check_run "place --capacity 1" (place "1")
    [ "capacity 1 infeasible: no processor can host object 6 evicted from 3\n";
      "certificates: skipped" ];
  check_run "place --capacity=-1" (place "-1")
    [ "capacity -1 infeasible: negative capacity -1 at processor 1\n";
      "certificates: skipped" ]

let test_compare () =
  check_run "compare"
    [ "compare"; "--kind"; "star"; "--leaves"; "6"; "--workload"; "zipf" ]
    [ "extended-nibble"; "owner"; "full-replication"; "lower bound" ]

let test_gadget () =
  check_run "gadget"
    [ "gadget"; "3"; "1"; "1"; "2"; "3"; "2" ]
    [ "PARTITION solvable: true"; "optimal congestion: 24 (4k = 24)" ]

let test_gadget_unsolvable () =
  check_run "gadget unsolvable"
    [ "gadget"; "1"; "1"; "4" ]
    [ "PARTITION solvable: false"; "(4k = 12)" ]

let test_gadget_odd () =
  check_run "gadget odd"
    [ "gadget"; "1"; "2" ]
    [ "odd: PARTITION trivially unsolvable" ]

let test_dynamic () =
  check_run "dynamic"
    [ "dynamic"; "--kind"; "star"; "--leaves"; "5"; "--objects"; "3";
      "--workload"; "prodcons" ]
    [ "worst edge ratio"; "competitive ratio 3" ]

let test_simulate () =
  check_run "simulate"
    [ "simulate"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "2";
      "--objects"; "4" ]
    [ "makespan:"; "distributed computation" ]

let faults_args extra =
  [ "simulate"; "--kind"; "star"; "--leaves"; "8"; "--workload"; "uniform";
    "--objects"; "6"; "--seed"; "3"; "--faults";
    "drop=0.1,until=40,crash=2:5-20,cut=1:8-16" ]
  @ extra

let test_simulate_faults () =
  check_run "simulate --faults" (faults_args [])
    [
      "fault plan: drop=0.1,until=40,crash=2:5-20,cut=1:8-16 (seed 3)";
      "fault log:";
      "hardened nibble:";
      "recovered distributed placement: identical to centralized strategy";
    ]

(* The fault schedule is a pure function of (seed, plan): the whole
   report — log counts included — must not depend on --jobs. *)
let test_simulate_faults_jobs_identical () =
  match (run_cli (faults_args [ "--jobs"; "1" ]),
         run_cli (faults_args [ "--jobs"; "4" ])) with
  | Some (Unix.WEXITED 0, o1), Some (Unix.WEXITED 0, o4) ->
    Alcotest.(check string) "identical output at --jobs 1 and 4" o1 o4
  | Some _, Some _ -> Alcotest.fail "simulate --faults exited non-zero"
  | _ -> ()

let test_simulate_faults_degraded () =
  (* A node that never restarts: the run must end in a structured
     degraded report with a non-zero exit, not an exception or a hang. *)
  check_fails "simulate --faults permanent crash"
    [ "simulate"; "--kind"; "star"; "--leaves"; "4"; "--objects"; "2";
      "--seed"; "3"; "--faults"; "crash=1:1-inf" ]
    [ "hbn_cli:"; "fault recovery degraded" ]

let test_simulate_faults_bad_spec () =
  check_fails "simulate --faults bad spec"
    [ "simulate"; "--kind"; "star"; "--leaves"; "4"; "--faults"; "drop=woof" ]
    [ "hbn_cli:"; "bad --faults spec"; "clause 1 at char 0" ];
  check_fails "simulate --faults bad second clause"
    [ "simulate"; "--kind"; "star"; "--leaves"; "4"; "--faults";
      "drop=0.1,crash=x:1-2" ]
    [ "hbn_cli:"; "bad --faults spec"; "clause 2 at char 9" ];
  check_fails "simulate --faults empty spec"
    [ "simulate"; "--kind"; "star"; "--leaves"; "4"; "--faults"; "" ]
    [ "hbn_cli:"; "bad --faults spec" ]

let link_args extra =
  [ "simulate"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "2";
    "--workload"; "uniform"; "--objects"; "5"; "--seed"; "7" ]
  @ extra

let test_simulate_link () =
  check_run "simulate --link"
    (link_args [ "--link"; "1:8,1:2" ])
    [ "link model: 1:8,1:2 (per level, root-down)"; "completion:";
      "virtual time"; "makespan:" ];
  (* A link model and a fault plan in one run: the simulated schedule on
     the slow tiers, then the hardened protocol's recovery. *)
  check_run "simulate --faults --link"
    [ "simulate"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "3";
      "--workload"; "zipf"; "--objects"; "8"; "--seed"; "7"; "--faults";
      "drop=0.15,until=60,crash=2:10-30"; "--link"; "1:64,1:32" ]
    [ "link model: 1:64,1:32 (per level, root-down)"; "completion:";
      "recovered distributed placement: identical to centralized strategy" ]

let test_simulate_link_bad_spec () =
  (* Malformed specs die with the clause index and character offset so
     the user can point at the offending token. *)
  check_fails "simulate --link bad spec"
    (link_args [ "--link"; "bogus" ])
    [ "hbn_cli:"; "bad --link spec"; "clause 1 at char 0" ];
  check_fails "simulate --link bad clause"
    (link_args [ "--link"; "1:8,nope" ])
    [ "hbn_cli:"; "bad --link spec"; "clause 2 at char 4" ];
  check_fails "simulate --link empty"
    (link_args [ "--link"; "" ])
    [ "hbn_cli:"; "bad --link spec" ]

(* Past 2^53 virtual time a tick plus one rounds back to itself; the
   simulator must still book a later tick and finish. *)
let test_simulate_link_huge_delay () =
  check_run "simulate --link 1e19:inf"
    [ "simulate"; "--link"; "1e19:inf" ]
    [ "link model: 1e+19:inf (per level, root-down)"; "makespan:";
      "completion:" ]

(* The event-driven simulation is deterministic: the whole report must
   not depend on --jobs. *)
let test_simulate_link_jobs_identical () =
  match (run_cli (link_args [ "--link"; "1:1,1:8"; "--jobs"; "1" ]),
         run_cli (link_args [ "--link"; "1:1,1:8"; "--jobs"; "4" ])) with
  | Some (Unix.WEXITED 0, o1), Some (Unix.WEXITED 0, o4) ->
    Alcotest.(check string) "identical output at --jobs 1 and 4" o1 o4
  | Some _, Some _ -> Alcotest.fail "simulate --link exited non-zero"
  | _ -> ()

(* explain runs its internal cross-checks (one-shot vs incremental vs
   evaluator) before printing anything, so a zero exit here is already a
   consistency statement; the output checks pin the three formats. *)
let test_explain_table () =
  check_run "explain"
    [ "explain"; "--kind"; "balanced"; "--arity"; "2"; "--height"; "2";
      "--objects"; "4"; "--workload"; "hotspot"; "--seed"; "7"; "--top"; "2" ]
    [ "congestion:"; "bottleneck"; "#1"; "#2"; "component"; "share" ]

let test_explain_json () =
  check_run "explain --format json"
    [ "explain"; "--kind"; "star"; "--leaves"; "6"; "--workload"; "zipf";
      "--format"; "json" ]
    [ "\"schema\":\"hbn.explain/v1\""; "\"congestion\":"; "\"contributions\"" ]

let test_explain_dot () =
  check_run "explain --format dot"
    [ "explain"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "2";
      "--format"; "dot" ]
    [ "graph hbn_attribution {"; "fillcolor"; "penwidth" ]

let test_explain_deterministic () =
  let args =
    [ "explain"; "--kind"; "random"; "--buses"; "4"; "--leaves"; "8";
      "--objects"; "5"; "--seed"; "99"; "--format"; "json" ]
  in
  match (run_cli args, run_cli args) with
  | Some (_, a), Some (_, b) -> Alcotest.(check string) "identical output" a b
  | _ -> ()

let test_save_load_roundtrip () =
  let tmp = Filename.temp_file "hbn_cli" ".hbn" in
  (match
     run_cli
       [ "topology"; "--kind"; "caterpillar"; "--spine"; "3"; "--leaves"; "6";
         "--save"; tmp ]
   with
  | None -> ()
  | Some _ ->
    check_run "load round trip"
      [ "topology"; "--load"; tmp ]
      [ "hierarchical bus network" ];
    Sys.remove tmp)

(* Every failure path must exit non-zero and say why on stderr. *)

let test_failures_exit_nonzero () =
  check_fails "topology bad load"
    [ "topology"; "--load"; "/nonexistent/nope.hbn" ]
    [ "hbn_cli:"; "cannot load" ];
  check_fails "workload bad topology file"
    [ "workload"; "--topology-file"; "/nonexistent/nope.hbn" ]
    [ "hbn_cli:"; "cannot load" ];
  check_fails "place bad trace path"
    [ "place"; "--kind"; "star"; "--leaves"; "4"; "--trace";
      "/nonexistent-dir/t.jsonl" ]
    [ "hbn_cli:"; "cannot open trace file" ];
  check_fails "gadget zero item"
    [ "gadget"; "0" ]
    [ "hbn_cli:" ];
  check_fails "simulate zero scale"
    [ "simulate"; "--kind"; "star"; "--leaves"; "4"; "--scale"; "0" ]
    [ "hbn_cli:"; "--scale must be >= 1 (got 0)" ];
  (* The shared flag parser must reject unknown flags with a diagnostic
     naming the flag, on every command that uses it. *)
  check_fails "explain unknown flag"
    [ "explain"; "--bogus" ]
    [ "unknown option"; "--bogus" ];
  check_fails "place unknown flag"
    [ "place"; "--bogus" ]
    [ "unknown option"; "--bogus" ];
  (* Oversized counts, unwritable paths and directories are user
     errors: exit 1 with a diagnostic, never an uncaught exception (exit
     125). *)
  let dir = Filename.temp_dir "hbn_cli" "" in
  let file name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let huge = string_of_int max_int in
  let tables counts =
    file "tables.txt" ("hbn-serve-tables 1\n" ^ counts)
  in
  let serve_nodes = "nodes 40\n" (* the default serve tree *) in
  let cases =
    [ ("topology huge nodes",
       [ "topology"; "--load"; file "nodes.hbn" ("nodes " ^ huge ^ "\n") ],
       "cannot load");
      ("workload huge objects",
       [ "workload"; "--load"; file "objects.txt" ("objects " ^ huge ^ "\n") ],
       "cannot load");
      ("serve huge epochs",
       [ "serve"; "--replay"; tables ("epochs " ^ huge ^ "\n") ],
       "cannot replay");
      ("serve huge objects",
       [ "serve"; "--replay";
         tables ("epochs 2\n" ^ serve_nodes ^ "objects " ^ huge ^ "\n") ],
       "cannot replay");
      ("topology save to a missing dir",
       [ "topology"; "--save"; "/nonexistent/x" ], "cannot save");
      ("workload save to a missing dir",
       [ "workload"; "--save"; "/nonexistent/x" ], "cannot save");
      ("topology load a dir", [ "topology"; "--load"; dir ], "cannot load");
      ("workload load a dir", [ "workload"; "--load"; dir ], "cannot load");
      ("serve replay a dir", [ "serve"; "--replay"; dir ], "cannot replay");
      (* Size flags a builder or generator would raise on. *)
      ("star with one leaf",
       [ "topology"; "--kind"; "star"; "--leaves"; "1" ],
       "--leaves must be >= 2 (got 1)");
      ("balanced arity 1",
       [ "topology"; "--kind"; "balanced"; "--arity"; "1" ],
       "--arity must be >= 2 (got 1)");
      ("zero bandwidth", [ "topology"; "--bandwidth"; "0" ],
       "--bandwidth must be >= 1 (got 0)");
      ("negative objects", [ "workload"; "--objects=-1" ],
       "--objects must be >= 0 (got -1)");
      ("zipf without objects",
       [ "place"; "--workload"; "zipf"; "--objects"; "0" ],
       "--objects must be >= 1 (got 0)") ]
  in
  List.iter
    (fun (name, args, what) ->
      match run_cli_merged args with
      | None -> ()
      | Some (status, out) ->
        if status <> Unix.WEXITED 1 || contains out "internal error"
           || not (contains out ("hbn_cli: " ^ what)) then
          Alcotest.failf "%s: expected exit 1 with %S\n%s" name what out)
    cases;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* The acceptance-criterion invocation: --trace must produce valid JSONL
   with spans for all three pipeline steps plus per-round mapping events,
   and --timings must print the phase table. *)
let test_place_trace_timings () =
  let tmp = Filename.temp_file "hbn_cli" ".jsonl" in
  (match
     run_cli
       [ "place"; "--kind"; "balanced"; "--trace"; tmp; "--timings" ]
   with
  | None -> ()
  | Some (status, out) ->
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "place --trace --timings: non-zero exit\n%s" out);
    List.iter
      (fun sub ->
        if not (contains out sub) then
          Alcotest.failf "timing table misses %S:\n%s" sub out)
      [ "phase"; "total ms"; "strategy.run"; "strategy.nibble";
        "strategy.deletion"; "strategy.mapping" ];
    let ic = open_in tmp in
    let events = ref [] in
    (try
       while true do
         let line = input_line ic in
         match Sink.of_json line with
         | Ok ev -> events := ev :: !events
         | Error msg -> Alcotest.failf "invalid JSONL line %S: %s" line msg
       done
     with End_of_file -> ());
    close_in ic;
    let events = List.rev !events in
    let has_end name =
      List.exists
        (fun (ev : Sink.event) ->
          ev.Sink.name = name
          && match ev.Sink.payload with Sink.Span_end _ -> true | _ -> false)
        events
    in
    List.iter
      (fun name ->
        if not (has_end name) then Alcotest.failf "trace misses span %s" name)
      [ "strategy.run"; "strategy.nibble"; "strategy.deletion";
        "strategy.mapping" ];
    if not (List.exists (fun (ev : Sink.event) -> ev.Sink.name = "mapping.round") events)
    then Alcotest.fail "trace misses mapping.round events");
  Sys.remove tmp

let test_place_trace_leaves_stdout_alone () =
  (* --trace only writes the file: the command's stdout stays
     byte-identical to an untraced run. *)
  let base =
    [ "place"; "--kind"; "balanced"; "--arity"; "2"; "--height"; "2";
      "--objects"; "4"; "--workload"; "hotspot"; "--seed"; "7" ]
  in
  let tmp = Filename.temp_file "hbn_cli" ".jsonl" in
  (match (run_cli base, run_cli (base @ [ "--trace"; tmp ])) with
  | Some (_, plain), Some (_, traced) ->
    Alcotest.(check string) "stdout unchanged by --trace" plain traced
  | _ -> ());
  Sys.remove tmp

(* The report command end to end: the golden file pins the exact table
   rendering of the committed fixture trace. *)
let test_report_golden () =
  match run_cli [ "report"; "fixtures/report_fixture.jsonl" ] with
  | None -> ()
  | Some (status, out) ->
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "report: non-zero exit\n%s" out);
    let ic = open_in "fixtures/report_fixture.table" in
    let n = in_channel_length ic in
    let expected = really_input_string ic n in
    close_in ic;
    Alcotest.(check string) "table matches golden" expected out

let test_report_malformed_fails_with_line () =
  let tmp = Filename.temp_file "hbn_cli_report" ".jsonl" in
  let oc = open_out tmp in
  output_string oc
    "{\"ev\":\"point\",\"name\":\"ok\",\"id\":0,\"parent\":0,\"attrs\":{}}\n\
     not json at all\n";
  close_out oc;
  check_fails "report malformed trace" [ "report"; tmp ]
    [ "hbn_cli:"; tmp ^ ":2:" ];
  Sys.remove tmp

let test_report_missing_file_fails () =
  check_fails "report missing file"
    [ "report"; "/nonexistent/nope.jsonl" ]
    [ "hbn_cli:" ]

(* The full telemetry acceptance path: simulate --faults --telemetry,
   then report in all three formats; the series file must be
   byte-identical across --jobs values and reruns. *)
let test_simulate_telemetry_report () =
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let tel_at jobs =
    let tmp = Filename.temp_file "hbn_cli_tel" ".jsonl" in
    match
      run_cli
        (faults_args
           [ "--telemetry"; tmp; "--jobs"; string_of_int jobs ])
    with
    | None ->
      Sys.remove tmp;
      None
    | Some (Unix.WEXITED 0, out) ->
      let data = read tmp in
      Sys.remove tmp;
      Some (out, data)
    | Some (_, out) -> Alcotest.failf "simulate --telemetry failed:\n%s" out
  in
  match (tel_at 1, tel_at 4, tel_at 1) with
  | Some (out1, tel1), Some (_, tel4), Some (_, tel1') ->
    if not (contains out1 "telemetry:") then
      Alcotest.failf "missing telemetry summary line:\n%s" out1;
    Alcotest.(check bool) "series non-empty" true (String.length tel1 > 0);
    Alcotest.(check string) "bit-identical at --jobs 1 and 4" tel1 tel4;
    Alcotest.(check string) "bit-identical across reruns" tel1 tel1';
    (* Both engines contributed: sim rounds and dist (protocol) rounds. *)
    List.iter
      (fun sub ->
        if not (contains tel1 sub) then
          Alcotest.failf "telemetry misses %S" sub)
      [ "\"sim.sent\""; "\"dist.sent\""; "\"dist.retransmits\"" ];
    (* The recorded file feeds report in every format. *)
    let tmp = Filename.temp_file "hbn_cli_tel" ".jsonl" in
    let oc = open_out tmp in
    output_string oc tel1;
    close_out oc;
    check_run "report on telemetry" [ "report"; tmp ]
      [ "series (per-round telemetry)"; "dist.retransmits"; "hottest edges" ];
    check_run "report --format json on telemetry"
      [ "report"; tmp; "--format"; "json" ]
      [ "\"schema\":\"hbn.report/v1\"" ];
    check_run "report --format chrome on telemetry"
      [ "report"; tmp; "--format"; "chrome" ]
      [ "\"traceEvents\"" ];
    Sys.remove tmp
  | _ -> ()

(* Diffing the committed fixture against itself must report exactly
   zero deltas in both renderers; chrome has no diff form. A fresh
   simulate --faults --telemetry file renders in all three formats and
   diffs clean against itself too: the monitors recomputed on both sides
   must agree exactly. *)
let test_report_diff_self () =
  let tel = Filename.temp_file "hbn_cli_tel" ".jsonl" in
  (match
     run_cli
       [ "simulate"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "2";
         "--workload"; "zipf"; "--seed"; "7"; "--faults"; "drop=0.1,until=50";
         "--telemetry"; tel ]
   with
  | None | Some (Unix.WEXITED 0, _) ->
    check_run "report on telemetry" [ "report"; tel ]
      [ "series (per-round telemetry)" ];
    check_run "report --format json on telemetry"
      [ "report"; tel; "--format"; "json" ]
      [ "\"schema\":\"hbn.report/v1\"" ];
    check_run "report --format chrome on telemetry"
      [ "report"; tel; "--format"; "chrome" ]
      [ "\"traceEvents\"" ];
    check_run "report --diff telemetry self" [ "report"; tel; "--diff"; tel ]
      [ "verdict: identical — every series and alert matches" ]
  | Some (_, out) -> Alcotest.failf "simulate --telemetry failed:\n%s" out);
  Sys.remove tel;
  check_run "report --diff self"
    [
      "report"; "fixtures/report_fixture.jsonl"; "--diff";
      "fixtures/report_fixture.jsonl";
    ]
    [ "verdict: identical — every series and alert matches" ];
  check_run "report --format json --diff self"
    [
      "report"; "fixtures/report_fixture.jsonl"; "--format"; "json"; "--diff";
      "fixtures/report_fixture.jsonl";
    ]
    [ "\"schema\":\"hbn.diff/v1\""; "\"clean\":true" ];
  check_fails "report --format chrome --diff"
    [
      "report"; "fixtures/report_fixture.jsonl"; "--format"; "chrome"; "--diff";
      "fixtures/report_fixture.jsonl";
    ]
    [ "hbn_cli:" ]

(* --telemetry turns the drift monitors on: both engines end the run
   with a health verdict line. *)
let test_simulate_health_verdicts () =
  let tmp = Filename.temp_file "hbn_cli_health" ".jsonl" in
  check_run "simulate --telemetry health"
    (faults_args [ "--telemetry"; tmp ])
    [ "health (sim):"; "health (dist):" ];
  if Sys.file_exists tmp then Sys.remove tmp

(* The acceptance criterion verbatim: report --format chrome on a
   simulate --faults --trace file is valid Chrome trace-event JSON. A
   place --trace file renders in all three formats. *)
let test_trace_to_chrome () =
  let traced name args check =
    let tmp = Filename.temp_file "hbn_cli_trace" ".jsonl" in
    (match run_cli (args @ [ "--trace"; tmp ]) with
    | None -> ()
    | Some (Unix.WEXITED 0, _) -> check tmp
    | Some (_, out) -> Alcotest.failf "%s --trace failed:\n%s" name out);
    Sys.remove tmp
  in
  let chrome tmp =
    match run_cli [ "report"; tmp; "--format"; "chrome" ] with
    | None -> ()
    | Some (Unix.WEXITED 0, out) ->
      (match Hbn_obs.Json.parse_result out with
      | Error m -> Alcotest.failf "chrome output is not JSON: %s" m
      | Ok doc ->
        (match
           Option.bind
             (Hbn_obs.Json.member "traceEvents" doc)
             Hbn_obs.Json.to_list
         with
        | Some (_ :: _) -> ()
        | _ -> Alcotest.fail "chrome output has no trace events"))
    | Some (_, out) -> Alcotest.failf "report --format chrome failed:\n%s" out
  in
  traced "simulate" (faults_args []) chrome;
  traced "place"
    [ "place"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "3";
      "--workload"; "zipf"; "--objects"; "8"; "--seed"; "7" ]
    (fun tmp ->
      check_run "report on a place trace" [ "report"; tmp ]
        [ "phases (wall time per span name)"; "strategy.run" ];
      check_run "report --format json on a place trace"
        [ "report"; tmp; "--format"; "json" ]
        [ "\"schema\":\"hbn.report/v1\"" ];
      chrome tmp)

(* serve --record writes the generated request tables; --replay of that
   file must re-optimize the same epochs and migrate the same bytes, so
   the two stdouts are compared verbatim. The recorded telemetry goes
   through report's analytics. *)
let test_serve_record_replay () =
  let tables = Filename.temp_file "hbn_cli_tables" ".txt" in
  let tel = Filename.temp_file "hbn_cli_tel" ".jsonl" in
  let serve extra =
    run_cli
      ([ "serve"; "--kind"; "balanced"; "--arity"; "3"; "--height"; "3";
         "--objects"; "8"; "--serve-seed"; "11" ]
      @ extra)
  in
  (match
     serve
       [ "--drift"; "hotspot_migration"; "--epochs"; "16"; "--record"; tables;
         "--telemetry"; tel ]
   with
  | None -> ()
  | Some (Unix.WEXITED 0, recorded) -> (
    match serve [ "--replay"; tables ] with
    | Some (Unix.WEXITED 0, replayed) ->
      Alcotest.(check string) "replay stdout = record stdout" recorded replayed;
      check_run "report --format json on serve telemetry"
        [ "report"; tel; "--format"; "json" ]
        [ "\"schema\":\"hbn.report/v1\"" ]
    | Some (_, out) -> Alcotest.failf "serve --replay failed:\n%s" out
    | None -> ())
  | Some (_, out) -> Alcotest.failf "serve --record failed:\n%s" out);
  Sys.remove tables;
  Sys.remove tel

(* A gauge reaches the trace once per sample: serve's turnaround gauge
   has one sample per epoch, not one more from the final counter
   snapshot. *)
let test_serve_trace_gauge_samples () =
  let trace = Filename.temp_file "hbn_cli_trace" ".jsonl" in
  let epochs = 6 in
  (match run_cli [ "serve"; "--epochs"; string_of_int epochs; "--trace"; trace ] with
  | None -> ()
  | Some (Unix.WEXITED 0, _) -> (
    match run_cli [ "report"; trace; "--format"; "json" ] with
    | Some (Unix.WEXITED 0, out) ->
      let module Json = Hbn_obs.Json in
      let gauge =
        Option.bind (Json.member "gauges" (Json.parse out)) Json.to_list
        |> Option.value ~default:[]
        |> List.find_opt (fun g ->
               Option.bind (Json.member "name" g) Json.to_string
               = Some "serve.epoch.turnaround_ms")
      in
      Alcotest.(check (option int))
        "turnaround samples = epochs" (Some epochs)
        (Option.bind gauge (fun g -> Option.bind (Json.member "samples" g) Json.to_int))
    | Some (_, out) -> Alcotest.failf "report failed:\n%s" out
    | None -> ())
  | Some (_, out) -> Alcotest.failf "serve --trace failed:\n%s" out);
  Sys.remove trace

let suite =
  [
    Helpers.tc "cli topology" test_topology;
    Helpers.tc "cli topology dot" test_topology_dot;
    Helpers.tc "cli place" test_place;
    Helpers.tc "cli place deterministic" test_place_deterministic;
    Helpers.tc "cli place --capacity infeasible" test_place_capacity_infeasible;
    Helpers.tc "cli compare" test_compare;
    Helpers.tc "cli gadget solvable" test_gadget;
    Helpers.tc "cli gadget unsolvable" test_gadget_unsolvable;
    Helpers.tc "cli gadget odd sum" test_gadget_odd;
    Helpers.tc "cli dynamic" test_dynamic;
    Helpers.tc "cli simulate" test_simulate;
    Helpers.tc "cli simulate --faults" test_simulate_faults;
    Helpers.tc "cli simulate --faults jobs-invariant"
      test_simulate_faults_jobs_identical;
    Helpers.tc "cli simulate --faults degraded" test_simulate_faults_degraded;
    Helpers.tc "cli simulate --faults bad spec" test_simulate_faults_bad_spec;
    Helpers.tc "cli simulate --link" test_simulate_link;
    Helpers.tc "cli simulate --link bad spec" test_simulate_link_bad_spec;
    Helpers.tc "cli simulate --link past 2^53" test_simulate_link_huge_delay;
    Helpers.tc "cli simulate --link jobs-invariant"
      test_simulate_link_jobs_identical;
    Helpers.tc "cli explain table" test_explain_table;
    Helpers.tc "cli explain json" test_explain_json;
    Helpers.tc "cli explain dot" test_explain_dot;
    Helpers.tc "cli explain deterministic" test_explain_deterministic;
    Helpers.tc "cli save/load round trip" test_save_load_roundtrip;
    Helpers.tc "cli failures exit non-zero" test_failures_exit_nonzero;
    Helpers.tc "cli place --trace --timings" test_place_trace_timings;
    Helpers.tc "cli --trace leaves stdout alone" test_place_trace_leaves_stdout_alone;
    Helpers.tc "cli report golden table" test_report_golden;
    Helpers.tc "cli report malformed line number"
      test_report_malformed_fails_with_line;
    Helpers.tc "cli report missing file" test_report_missing_file_fails;
    Helpers.tc "cli simulate --telemetry feeds report"
      test_simulate_telemetry_report;
    Helpers.tc "cli report --diff against itself" test_report_diff_self;
    Helpers.tc "cli simulate --telemetry health verdicts"
      test_simulate_health_verdicts;
    Helpers.tc "cli --trace to chrome trace-event JSON" test_trace_to_chrome;
    Helpers.tc "cli serve --record/--replay" test_serve_record_replay;
    Helpers.tc "cli serve --trace: one gauge sample per epoch"
      test_serve_trace_gauge_samples;
  ]
