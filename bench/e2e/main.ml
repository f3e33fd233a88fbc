(* End-to-end benchmark of the four user-facing paths, timed from outside.

   Usage (from the repository root):
     dune exec bench/e2e/main.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE] [--smoke]
     dune exec bench/e2e/main.exe -- --compare A.jsonl B.jsonl

   One process runs one workload. Without --workload the program re-execs
   itself once per workload, so GC state and the heap peak are per
   workload. The load is a closed loop: one client, one pass in flight,
   sequential Exec.

   --trace 0 measures the end-to-end metrics: set-up (repeated, median),
   one warm-up pass, then timed passes until --seconds have passed.
   --trace 1 measures the per-layer metrics: half the time untraced (for
   allocation and the tracing overhead), the 2-domain Strategy.run, then
   half the time with an in-memory trace sink installed; --trace-out
   writes that buffer as JSONL for `hbn_cli report`.

   The last stdout line is one JSON object: correct, attempted, failed and
   metrics. A pass fails if it raises or an output check fails; the exit
   code is 1 when any pass failed. *)

module Json = Hbn_obs.Json
module Sink = Hbn_obs.Sink
module Trace = Hbn_obs.Trace
module Report = Hbn_obs.Report
module Exec = Hbn_exec.Exec
module Strategy = Hbn_core.Strategy
module Prng = Hbn_prng.Prng
module Table = Hbn_util.Table

let default_seed = 1
let setup_reps = 5
let max_setup_reps = 100
let setup_budget_s = 1.0
let min_passes = 3
let j2_reps = 3

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable out : string option;
  mutable smoke : bool;
  mutable spec : string option;
  mutable compare : (string * string) option;
}

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2e: " ^ m);
      exit 2)
    fmt

(* Each workload draws from its own stream of (seed, name), so a run of
   one workload equals that workload's part of a run of all four. *)
let derive_seed ~seed name =
  Int64.to_int
    (Prng.hash ~seed (List.init (String.length name) (fun i -> Char.code name.[i])))
  land max_int

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable fingerprint : string;  (* of the last pass that succeeded *)
}

let attempt tally ~pinned ~probes (p : Workloads.prepared) =
  tally.attempted <- tally.attempted + 1;
  match
    let t0 = Layer.now_s () in
    let check = Layer.run "e2e.pass" p.pass in
    let dt = Layer.now_s () -. t0 in
    if probes then Layer.run "e2e.probes" p.probes;
    let fp = check () in
    (match pinned with
    | Some want when want <> fp ->
      Workloads.fail "fingerprint %S, pinned %S" fp want
    | _ -> ());
    (dt, fp)
  with
  | (_, fp) as r ->
    tally.fingerprint <- fp;
    Some r
  | exception e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "e2e: pass %d failed: %s\n%!" tally.attempted
      (Printexc.to_string e);
    None

(* Passes until [seconds] have elapsed and at least [min] ran; the times
   of the passes that succeeded. *)
let timed_passes tally ~pinned ~probes ~seconds ~min p =
  let start = Layer.now_s () in
  let rec go n acc =
    if n >= min && Layer.now_s () -. start >= seconds then List.rev acc
    else
      match attempt tally ~pinned ~probes p with
      | Some (dt, _) -> go (n + 1) (dt :: acc)
      | None -> go (n + 1) acc
  in
  go 0 []

(* With [reps > 1], set-up first runs once untimed, so the heap has grown
   to hold an instance, and is then timed at least [reps] times and,
   while [max_setup_reps] allows, until [setup_budget_s] of set-up time
   has accumulated. Every timed set-up starts from a collected heap: its
   time then depends neither on the garbage the previous one left nor on
   how fast the host hands out fresh pages. *)
let setups (wl : Workloads.t) size ~seed ~reps =
  let build () = Layer.run "e2e.setup" (fun () -> wl.setup size ~seed) in
  if reps > 1 then ignore (build ());
  let rec go n spent times =
    Gc.full_major ();
    let t0 = Layer.now_s () in
    let p = build () in
    let dt = Layer.now_s () -. t0 in
    let n = n + 1 and spent = spent +. dt and times = dt :: times in
    if n >= reps && (reps = 1 || n >= max_setup_reps || spent >= setup_budget_s)
    then (List.rev times, p)
    else go n spent times
  in
  go 0 0. []

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

type measured = { m : Metrics.t; value : float; samples : float list }

let of_samples m samples = { m; value = Layer.median samples; samples }

let run_e2e o wl size ~seed ~pinned tally =
  let setup_times, p =
    setups wl size ~seed ~reps:(if o.smoke then 1 else setup_reps)
  in
  if not o.smoke then ignore (attempt tally ~pinned ~probes:false p);
  let passes =
    timed_passes tally ~pinned ~probes:false ~seconds:o.seconds
      ~min:(if o.smoke then 1 else min_passes) p
  in
  let metric name = List.find (fun m -> m.Metrics.name = name) Metrics.end_to_end in
  ( [
      of_samples (metric "setup_s") setup_times;
      of_samples (metric "run_s") passes;
      of_samples (metric "heap_peak_mb") [ heap_peak_mb () ];
    ],
    [] )

(* Sequential vs 2-domain Strategy.run on the same table, alternating;
   the 2-domain result must be bit-identical. *)
let time_j2 tally w ~reps =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  Exec.with_runner ~jobs @@ fun ex ->
  let time f =
    let t0 = Layer.now_s () in
    let r = f () in
    ((Layer.now_s () -. t0) *. 1e3, r)
  in
  let pairs =
    List.init reps (fun _ ->
        let seq_ms, seq = time (fun () -> Strategy.run w) in
        let j2_ms, par = time (fun () -> Strategy.run ~exec:ex w) in
        tally.attempted <- tally.attempted + 1;
        if par.Strategy.placement <> seq.Strategy.placement then begin
          tally.failed <- tally.failed + 1;
          prerr_endline "e2e: 2-domain Strategy.run differs from sequential"
        end;
        (seq_ms, j2_ms))
  in
  (Layer.median (List.map fst pairs), Layer.median (List.map snd pairs))

let trace_file path name =
  Filename.remove_extension path ^ "." ^ name ^ Filename.extension path

let write_trace path events =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (Sink.to_json e);
          output_char oc '\n')
        events)

let run_traced o (wl : Workloads.t) size ~seed ~pinned tally =
  let half = o.seconds /. 2. in
  let _, p = setups wl size ~seed ~reps:1 in
  Layer.count_alloc := true;
  if not o.smoke then ignore (attempt tally ~pinned ~probes:true p);
  let untraced = timed_passes tally ~pinned ~probes:true ~seconds:half ~min:1 p in
  Layer.count_alloc := false;
  let seq_ms, j2_ms =
    time_j2 tally p.strategy_input ~reps:(if o.smoke then 1 else j2_reps)
  in
  (* Strategy.run emits attribution snapshots while tracing; their cost
     stays in the trace overhead, but the cells are not kept. *)
  let mem, read = Sink.memory () in
  let sink =
    {
      mem with
      Sink.emit =
        (fun e ->
          match e.Sink.payload with
          | Sink.Attribution _ -> ()
          | _ -> mem.Sink.emit e);
    }
  in
  Trace.set_sink (Some sink);
  ignore (setups wl size ~seed ~reps:(if o.smoke then 1 else setup_reps));
  let traced = timed_passes tally ~pinned ~probes:true ~seconds:half ~min:1 p in
  Trace.set_sink None;
  Layer.events := read ();
  let report =
    match o.trace_out with
    | None -> Ok (Report.of_events !Layer.events)
    | Some path ->
      write_trace path !Layer.events;
      Report.load ~path
  in
  let missing =
    match report with
    | Error m -> [ m ]
    | Ok r ->
      let have = List.map (fun ph -> ph.Report.name) (Report.phases r) in
      List.filter (fun s -> not (List.mem s have)) (Metrics.spans @ p.spans)
  in
  if missing <> [] then begin
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    Printf.eprintf "e2e: the trace lacks span(s): %s\n%!"
      (String.concat ", " missing)
  end;
  let layers =
    Metrics.derive
      {
        Metrics.untraced_pass_s = Layer.median untraced;
        traced_pass_s = Layer.median traced;
        j2_ms;
        seq_ms;
      }
  in
  ( List.map (fun (m, v) -> { m; value = v; samples = [ v ] }) layers,
    p.extras () )

(* -- output -------------------------------------------------------------- *)

let json_float f =
  let b = Buffer.create 24 in
  Json.float_to_string b f;
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  json_obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", json_obj metrics);
    ]

let metric_json ?(samples = false) name value unit_ xs =
  ( name,
    json_obj
      ([ ("value", json_float value); ("unit", Printf.sprintf "%S" unit_) ]
      @
      if samples then
        [ ("samples", "[" ^ String.concat "," (List.map json_float xs) ^ "]") ]
      else []) )

let print_metrics title rows =
  let tbl = Table.create [ title; "value"; "unit"; "n"; "q1"; "q3" ] in
  List.iter
    (fun (name, v, u, xs) ->
      let q1, q3 = Layer.quartiles xs in
      let n = List.length xs in
      Table.add_row tbl
        [
          name;
          Printf.sprintf "%.6g" v;
          u;
          string_of_int n;
          (if n > 1 then Printf.sprintf "%.6g" q1 else "-");
          (if n > 1 then Printf.sprintf "%.6g" q3 else "-");
        ])
    rows;
  Table.print tbl

let run_one o name =
  let wl =
    match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
    | Some w -> w
    | None ->
      die "unknown workload %S (have: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))
  in
  let size = if o.smoke then Workloads.Smoke else Workloads.Full in
  let pinned =
    if o.seed = default_seed then Workloads.pinned size name else None
  in
  let seed = derive_seed ~seed:o.seed name in
  let tally = { attempted = 0; failed = 0; fingerprint = "" } in
  let metrics, extras =
    (if o.trace then run_traced else run_e2e) o wl size ~seed ~pinned tally
  in
  Printf.printf "%s: seed %d, %s size, trace %d, %d passes attempted, %d failed\n"
    name o.seed
    (if o.smoke then "smoke" else "full")
    (Bool.to_int o.trace) tally.attempted tally.failed;
  Printf.printf "fingerprint: %s\n" tally.fingerprint;
  print_metrics "metric"
    (List.map (fun x -> (x.m.Metrics.name, x.value, x.m.Metrics.unit_, x.samples)) metrics);
  if extras <> [] then
    print_metrics "workload layer" (List.map (fun (n, v, u) -> (n, v, u, [ v ])) extras);
  let correct = tally.failed = 0 in
  Option.iter
    (fun path ->
      let record =
        json_obj
          [
            ("workload", Printf.sprintf "%S" name);
            ("seed", string_of_int o.seed);
            ("size", Printf.sprintf "%S" (if o.smoke then "smoke" else "full"));
            ("trace", string_of_int (Bool.to_int o.trace));
            ("attempted", string_of_int tally.attempted);
            ("failed", string_of_int tally.failed);
            ( "metrics",
              json_obj
                (List.map
                   (fun x ->
                     metric_json ~samples:true x.m.Metrics.name x.value
                       x.m.Metrics.unit_ x.samples)
                   metrics) );
            ( "layers",
              json_obj (List.map (fun (n, v, u) -> metric_json n v u []) extras) );
          ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644
        path (fun oc -> output_string oc (record ^ "\n")))
    o.out;
  print_endline
    (result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
       (List.map
          (fun x -> metric_json x.m.Metrics.name x.value x.m.Metrics.unit_ [])
          metrics));
  exit (if correct then 0 else 1)

(* -- all workloads: one child process each -------------------------------- *)

let run_all o =
  Option.iter (fun path -> close_out (open_out_bin path)) o.out;
  let exe = Sys.executable_name in
  let child (wl : Workloads.t) =
    let args =
      [ exe; "--workload"; wl.name; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%g" o.seconds;
        "--trace"; (if o.trace then "1" else "0") ]
      @ (if o.smoke then [ "--smoke" ] else [])
      @ (match o.trace_out with
        | Some p -> [ "--trace-out"; trace_file p wl.name ]
        | None -> [])
      @ match o.out with Some p -> [ "--out"; p ] | None -> []
    in
    let ic = Unix.open_process_args_in exe (Array.of_list args) in
    let last = ref "" in
    (try
       while true do
         let l = input_line ic in
         print_endline l;
         last := l
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    let doc = Result.to_option (Json.parse_result !last) in
    let get k f = Option.bind (Option.bind doc (Json.member k)) f in
    ( wl.name,
      status = Unix.WEXITED 0 && get "correct" (function Json.Bool b -> Some b | _ -> None) = Some true,
      Option.value ~default:0 (get "attempted" Json.to_int),
      Option.value ~default:1 (get "failed" Json.to_int),
      Option.value ~default:[]
        (get "metrics" (function Json.Obj l -> Some l | _ -> None)) )
  in
  let results = List.map child Workloads.all in
  let correct = List.for_all (fun (_, c, _, _, _) -> c) results in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let metrics =
    List.concat_map
      (fun (name, _, _, _, ms) ->
        List.map
          (fun (k, v) ->
            let f key = Option.bind (Json.member key v) in
            metric_json (name ^ "/" ^ k)
              (Option.value ~default:nan (f "value" Json.to_float))
              (Option.value ~default:"" (f "unit" Json.to_string))
              [])
          ms)
      results
  in
  print_endline
    (result_line ~correct ~attempted:(sum (fun (_, _, a, _, _) -> a))
       ~failed:(sum (fun (_, _, _, f, _) -> f))
       metrics);
  exit (if correct then 0 else 1)

(* -- entry ---------------------------------------------------------------- *)

let () =
  let o =
    {
      workload = None;
      seed = default_seed;
      seconds = 10.;
      trace = false;
      trace_out = None;
      out = None;
      smoke = false;
      spec = None;
      compare = None;
    }
  in
  let cmp_a = ref "" in
  let specs =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "NAME one workload");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N workload seed (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> o.seconds <- s),
        "S timed seconds per run (default 10)" );
      ( "--trace",
        Arg.Int
          (function
            | 0 -> o.trace <- false
            | 1 -> o.trace <- true
            | n -> raise (Arg.Bad (Printf.sprintf "--trace must be 0 or 1, got %d" n))),
        "0|1 end-to-end metrics (0) or per-layer metrics (1)" );
      ( "--trace-out",
        Arg.String (fun s -> o.trace_out <- Some s),
        "FILE with --trace 1, write the spans as JSONL" );
      ("--out", Arg.String (fun s -> o.out <- Some s), "FILE append one JSON record per workload");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " tiny sizes, one pass");
      ( "--spec",
        Arg.String (fun s -> o.spec <- Some s),
        "FILE fail unless BENCHMARK.json lists this benchmark's metrics" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> cmp_a := a);
            Arg.String (fun b -> o.compare <- Some (!cmp_a, b));
          ],
        "A B compare two --out files" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  if o.seconds < 0. then die "--seconds must be >= 0";
  if o.smoke then o.seconds <- 0.;
  if o.trace_out <> None && not o.trace then die "--trace-out needs --trace 1";
  Option.iter
    (fun path ->
      match
        Metrics.check_spec ~path
          ~workloads:
            (List.map (fun w -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
      with
      | Ok () -> ()
      | Error m ->
        prerr_endline ("e2e: " ^ path ^ ": " ^ m);
        exit 1)
    o.spec;
  match (o.compare, o.workload) with
  | Some (a, b), _ -> exit (Compare.run a b)
  | None, Some name -> run_one o name
  | None, None -> run_all o
