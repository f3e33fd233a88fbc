(* Regression gate over the committed baselines.

   Run with:
     dune exec bench/check.exe \
       [-- PIPELINE.json [FAULTS.json [PARALLEL.json [ASYNC.json
            [MONITOR.json [SERVE.json]]]]]]
   Re-runs the pipeline, fault-recovery, async-simulation, drift-detection
   and adaptive-serving case matrices, renders every fresh case through
   the same writer that produced the committed BENCH_*.json, and walks
   the two JSON trees side by side. Every deterministic field must match
   exactly; the only noise is wall time (the pipeline phases' "total_ns"),
   and the environment header ("meta") and "micro" wall-clock notes sit
   outside the compared "cases". BENCH_parallel.json is validated
   statically (schema, the identical flag, chunk-scheduling arithmetic).
   Exits 1 naming every divergence by its path, e.g.
   pipeline[4].counters.sim.packets: a diff here means a code change
   altered what the pipeline (or the fault recovery, the drift detection,
   or the serving adaptation) computes, not just how fast. *)

module Json = Hbn_obs.Json
module PC = Pipeline_cases
module FC = Fault_cases
module AC = Async_cases
module MC = Monitor_cases
module SC = Serve_cases

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "bench/check: %s\n" msg)
    fmt

let get name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Json.Parse (Printf.sprintf "missing or mistyped %S" name))

(* Keys holding host noise, skipped wherever they occur in a case. *)
let ignored_keys schema = if schema = PC.schema then [ "total_ns" ] else []

let show = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int n -> string_of_int n
  | Json.Float x ->
    let buf = Buffer.create 16 in
    Json.float_to_string buf x;
    Buffer.contents buf
  | Json.Str s -> Printf.sprintf "%S" s
  | Json.List _ -> "a list"
  | Json.Obj _ -> "an object"

(* Objects compare as key sets in any order, lists element by element,
   scalars by equality. Both sides went through the same writer, so
   floats already share its rounding and compare exactly. *)
let rec diff ~ignored path baseline fresh =
  match (baseline, fresh) with
  | Json.Obj b, Json.Obj f ->
    let keys kvs =
      List.filter (fun k -> not (List.mem k ignored)) (List.map fst kvs)
    in
    List.iter
      (fun k ->
        if not (List.mem_assoc k f) then
          fail "%s.%s: in the baseline, missing from the fresh run" path k)
      (keys b);
    List.iter
      (fun k ->
        match List.assoc_opt k b with
        | None ->
          fail "%s.%s: in the fresh run, missing from the baseline" path k
        | Some bv -> diff ~ignored (path ^ "." ^ k) bv (List.assoc k f))
      (keys f)
  | Json.List b, Json.List f ->
    if List.length b <> List.length f then
      fail "%s: %d elements (baseline) <> %d (fresh)" path (List.length b)
        (List.length f);
    let rec pairs i b f =
      match (b, f) with
      | bv :: b, fv :: f ->
        diff ~ignored (Printf.sprintf "%s[%d]" path i) bv fv;
        pairs (i + 1) b f
      | _ -> ()
    in
    pairs 0 b f
  | _ ->
    if baseline <> fresh then
      fail "%s: %s (baseline) <> %s (fresh)" path (show baseline) (show fresh)

let load_doc ~path ~schema =
  let doc =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> (
      match Json.parse_result text with
      | Ok doc -> doc
      | Error m ->
        Printf.eprintf "bench/check: cannot parse %s: %s\n" path m;
        exit 1)
    | exception Sys_error m ->
      Printf.eprintf "bench/check: cannot read baseline: %s\n" m;
      exit 1
  in
  (match Json.member "schema" doc with
  | Some (Json.Str s) when s = schema -> ()
  | _ ->
    Printf.eprintf "bench/check: %s is not a %s file\n" path schema;
    exit 1);
  doc

let load_cases ~path ~schema =
  match Json.member "cases" (load_doc ~path ~schema) with
  | Some (Json.List _ as cases) -> cases
  | _ ->
    Printf.eprintf "bench/check: %s has no cases array\n" path;
    exit 1

(* The parallel baseline is checked statically, without re-running the
   scaling bench: its wall times are host noise, but the schema tag, the
   bit-identity flag and the chunk arithmetic are deterministic claims
   about the code — a committed file whose chunk fields no longer match
   [Exec.auto_chunk] means the scheduling math changed under it. *)
let check_parallel ~path =
  let doc = load_doc ~path ~schema:"hbn.bench.parallel/v2" in
  (match Json.member "identical" doc with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: \"identical\" is not true" path);
  let objects = get "objects" Json.to_int doc in
  let runs =
    match Option.bind (Json.member "runs" doc) Json.to_list with
    | Some l -> l
    | None ->
      fail "%s has no runs array" path;
      []
  in
  (try
     List.iter
       (fun run ->
         let jobs = get "jobs" Json.to_int run in
         let chunk = get "chunk" Json.to_int run in
         let chunks = get "chunks" Json.to_int run in
         let want_chunk = Hbn_exec.Exec.auto_chunk ~jobs objects in
         let want_chunks = (objects + want_chunk - 1) / want_chunk in
         if chunk <> want_chunk then
           fail "%s: jobs=%d chunk %d (baseline) <> %d (auto_chunk)" path jobs
             chunk want_chunk;
         if chunks <> want_chunks then
           fail "%s: jobs=%d chunks %d (baseline) <> %d (derived)" path jobs
             chunks want_chunks;
         let tpc = get "tasks_per_chunk" Json.to_float run in
         let want_tpc = float_of_int objects /. float_of_int want_chunks in
         if Printf.sprintf "%.2f" tpc <> Printf.sprintf "%.2f" want_tpc then
           fail
             "%s: jobs=%d tasks_per_chunk %.2f (baseline) <> %.2f (derived)"
             path jobs tpc want_tpc)
       runs
   with Json.Parse m -> fail "malformed run in %s: %s" path m);
  List.length runs

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let render json_of_case all () =
    List.map (fun c -> Json.parse (json_of_case c)) (all ())
  in
  let matrices =
    [
      ("pipeline", PC.schema, arg 1 "BENCH_pipeline.json",
       render PC.json_of_case PC.all);
      ("fault", FC.schema, arg 2 "BENCH_faults.json",
       render FC.json_of_case FC.all);
      ("async", AC.schema, arg 4 "BENCH_async.json",
       render AC.json_of_case AC.all);
      ("monitor", MC.schema, arg 5 "BENCH_monitor.json",
       render MC.json_of_case MC.all);
      ("serve", SC.schema, arg 6 "BENCH_serve.json",
       render SC.json_of_case SC.all);
    ]
  in
  let matched =
    List.map
      (fun (name, schema, path, fresh) ->
        let baseline = load_cases ~path ~schema in
        let fresh = fresh () in
        diff ~ignored:(ignored_keys schema) name baseline (Json.List fresh);
        Printf.sprintf "%d %s cases match %s" (List.length fresh) name path)
      matrices
  in
  let parallel_path = arg 3 "BENCH_parallel.json" in
  let parallel_runs = check_parallel ~path:parallel_path in
  if !failures > 0 then begin
    Printf.eprintf
      "bench/check: %d divergence(s) from the committed baselines — a code \
       change altered pipeline, fault-recovery, async-simulation, \
       drift-detection or serving-adaptation results (regenerate the \
       baselines only if that was the point)\n"
      !failures;
    exit 1
  end;
  Printf.printf "bench/check: %s, %d parallel runs consistent in %s \
                 (deterministic fields)\n"
    (String.concat ", " matched) parallel_runs parallel_path
