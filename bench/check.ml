(* Regression gate over the committed baselines.

   Run with:
     dune exec bench/check.exe [-- NAME=PATH ...]
   With no argument every baseline is checked at BENCH_<NAME>.json in
   the current directory; NAME=PATH arguments check only the named
   baselines, read from PATH. NAME is a Matrix name (pipeline, faults,
   async, monitor, serve), parallel or loads.

   Each case matrix is re-run once: its contract is checked on the
   fresh cases, which are then rendered through the same writer that
   produced the committed file and walked side by side with its "cases".
   Every deterministic field must match exactly; the only noise is wall
   time (the pipeline phases' "total_ns"), and the environment header
   ("meta") sits outside the compared "cases". BENCH_parallel.json is
   validated statically (schema, the identical flag, chunk-scheduling
   arithmetic). BENCH_loads.json must say its climbs were identical, and
   its congestion is recomputed by the engine climb on the committed
   instance. Exits 1 naming every divergence by its path, e.g.
   pipeline[4].counters.sim.packets: a diff here means a code change
   altered what the pipeline (or the fault recovery, the drift
   detection, the serving adaptation or the hill climb) computes, not
   just how fast. *)

module Json = Hbn_obs.Json
module Placement = Hbn_placement.Placement
module LC = Loads_case

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
let ignored_keys (m : Matrix.t) =
  if m.name = "pipeline" then [ "total_ns" ] else []

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

(* The loads baseline records one engine climb on a fixed instance:
   the engine must have matched the scratch climb when it was recorded,
   and the instance fields and congestion must match a fresh engine
   climb (the congestion through the writer's %.3f rounding). *)
let check_loads ~path =
  let doc = load_doc ~path ~schema:LC.schema in
  (match Json.member "identical" doc with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: \"identical\" is not true" path);
  let tree, w =
    LC.instance ~arity:LC.arity ~height:LC.height ~objects:LC.objects
  in
  let congestion =
    Placement.congestion w (LC.engine_climb ~iterations:LC.iterations w)
  in
  List.iter
    (fun (k, fresh) ->
      match Json.member k doc with
      | Some baseline -> diff ~ignored:[] ("loads." ^ k) baseline fresh
      | None -> fail "loads.%s: missing from the baseline" k)
    [
      ("topology", Json.Str LC.topology);
      ("leaves", Json.Int (Hbn_tree.Tree.num_leaves tree));
      ("objects", Json.Int LC.objects);
      ("iterations", Json.Int LC.iterations);
      ("seed", Json.Int LC.seed);
      ( "congestion",
        Json.Float (float_of_string (Printf.sprintf "%.3f" congestion)) );
    ]

(* Each matrix is computed once: its contract is checked on the fresh
   cases, which are then diffed against the baseline. *)
let check_matrix (m : Matrix.t) ~path =
  let baseline = load_cases ~path ~schema:m.schema in
  let errs, cases = m.run () in
  List.iter (fail "%s contract: %s" m.name) errs;
  let fresh = List.map Json.parse cases in
  diff ~ignored:(ignored_keys m) m.name baseline (Json.List fresh);
  Printf.sprintf "%d %s cases match %s" (List.length fresh) m.name path

(* Every baseline by name, each returning its summary line. *)
let checks =
  List.map (fun (m : Matrix.t) -> (m.name, check_matrix m)) Matrix.all
  @ [
      ( "parallel",
        fun ~path ->
          Printf.sprintf "%d parallel runs consistent in %s"
            (check_parallel ~path) path );
      ( "loads",
        fun ~path ->
          check_loads ~path;
          Printf.sprintf "loads climb matches %s" path );
    ]

let usage () =
  Printf.eprintf "usage: check.exe [NAME=PATH ...]  (NAME: %s)\n"
    (String.concat ", " (List.map fst checks));
  exit 2

let () =
  let overrides =
    List.map
      (fun arg ->
        match String.index_opt arg '=' with
        | Some i when List.mem_assoc (String.sub arg 0 i) checks ->
          ( String.sub arg 0 i,
            String.sub arg (i + 1) (String.length arg - i - 1) )
        | _ -> usage ())
      (List.tl (Array.to_list Sys.argv))
  in
  let summaries =
    List.filter_map
      (fun (name, check) ->
        match List.assoc_opt name overrides with
        | Some path -> Some (check ~path)
        | None when overrides = [] ->
          Some (check ~path:(Matrix.file name))
        | None -> None)
      checks
  in
  if !failures > 0 then begin
    Printf.eprintf
      "bench/check: %d divergence(s) from the committed baselines — a code \
       change altered pipeline, fault-recovery, async-simulation, \
       drift-detection, serving-adaptation or hill-climb results \
       (regenerate the baselines only if that was the point)\n"
      !failures;
    exit 1
  end;
  Printf.printf "bench/check: %s (deterministic fields)\n"
    (String.concat ", " summaries)
