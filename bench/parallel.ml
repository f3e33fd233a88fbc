(* Scaling of the domain-parallel per-object pipeline.

   Run with:  dune exec bench/parallel.exe [-- OUTPUT.json]
          or  dune exec bench/parallel.exe -- --smoke
   The full run executes the whole strategy (Steps 1-3 plus the final
   evaluation) on one large random instance at --jobs 1, 2 and 4 and
   records wall times and speedups in BENCH_parallel.json, together with
   the core count the runtime detects — scaling numbers are only
   meaningful when the host actually has that many cores. Every run must
   produce a bit-identical [Strategy.result] and evaluation; the bench
   fails (exit 1) on any divergence. [--smoke] checks equality on a small
   instance under `dune runtest`: no timing claims, no JSON written. *)

module Builders = Hbn_tree.Builders
module Tree = Hbn_tree.Tree
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Exec = Hbn_exec.Exec
module Json = Hbn_obs.Json

let seed = 20260806
let job_counts = [ 1; 2; 4 ]

(* Fresh instance per run so every job count pays the same flat-cache
   warm-up (workload rows and tree index); the generators are deterministic in the seed. *)
let instance ~arity ~height ~objects () =
  let tree = Builders.balanced ~arity ~height ~profile:(Builders.Uniform 2) in
  let w =
    Generators.uniform ~prng:(Prng.create (seed + 1)) tree ~objects ~max_rate:8
  in
  (tree, w)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* End-to-end pipeline: strategy + congestion evaluation, both on the
   runner under test. *)
let run_once ~jobs mk =
  Exec.with_runner ~jobs (fun exec ->
      let _, w = mk () in
      let out, secs =
        time (fun () ->
            let res = Strategy.run ~exec w in
            let c = Placement.evaluate ~exec w res.Strategy.placement in
            (res, c))
      in
      (secs, out))

(* Best of [repeats] to shave scheduler noise; equality is checked on
   every repeat, not just the timed best. *)
let measure ~repeats ~jobs mk =
  let best = ref infinity and result = ref None in
  for _ = 1 to repeats do
    let secs, res = run_once ~jobs mk in
    (match !result with
    | None -> result := Some res
    | Some prev ->
      if prev <> res then begin
        Printf.eprintf
          "bench/parallel: jobs=%d produced different results across repeats\n"
          jobs;
        exit 1
      end);
    if secs < !best then best := secs
  done;
  (!best, Option.get !result)

(* [reference] and [res] hold a Strategy.result and what was derived from
   it — all plain data, so structural compare covers the placement,
   every stage, the stats and the evaluation at once. *)
let check_identical ~reference ~jobs res =
  if res <> reference then begin
    Printf.eprintf
      "bench/parallel: jobs=%d diverges from jobs=1 (placement, stats or \
       evaluation differ)\n"
      jobs;
    exit 1
  end

(* The smoke run also derives the Step 1 and Step 2 placements on the
   runner under test, so their fan-out is held to the same identity. *)
let smoke () =
  let mk = instance ~arity:3 ~height:2 ~objects:12 in
  let results =
    List.map
      (fun jobs ->
        Exec.with_runner ~jobs (fun exec ->
            let _, w = mk () in
            let res = Strategy.run ~exec w in
            ( res,
              Placement.evaluate ~exec w res.Strategy.placement,
              Strategy.nibble_placement ~exec w res,
              Strategy.modified_placement ~exec w res )))
      job_counts
  in
  (match results with
  | reference :: rest ->
    List.iteri
      (fun i res ->
        check_identical ~reference ~jobs:(List.nth job_counts (i + 1)) res)
      rest
  | [] -> ());
  print_endline
    "bench/parallel --smoke: jobs 1/2/4 bit-identical (strategy, evaluate, \
     Step 1 and Step 2 placements)"

(* The previous baseline's sequential time, carried into the fresh file
   as "prev_seq_seconds" so a regeneration records the speed delta it
   overwrote (accepts the v1 schema too, which lacked the field). *)
let prev_seq_seconds path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Json.parse_result text with
    | Error _ -> None
    | Ok doc ->
      Option.bind (Json.member "runs" doc) Json.to_list
      |> Option.map
           (List.filter_map (fun run ->
                match
                  ( Option.bind (Json.member "jobs" run) Json.to_int,
                    Option.bind (Json.member "seconds" run) Json.to_float )
                with
                | Some 1, Some s -> Some s
                | _ -> None))
      |> function
      | Some (s :: _) -> Some s
      | _ -> None)

let full out_path =
  let repeats = 3 in
  let arity = 4 and height = 4 and objects = 384 in
  let mk = instance ~arity ~height ~objects in
  let tree, w = mk () in
  let prev_seq = prev_seq_seconds out_path in
  let cores = Domain.recommended_domain_count () in
  let measured =
    List.map
      (fun jobs ->
        let secs, res = measure ~repeats ~jobs mk in
        (jobs, secs, res))
      job_counts
  in
  let _, base_s, reference =
    match measured with m :: _ -> m | [] -> assert false
  in
  List.iter
    (fun (jobs, _, res) ->
      if jobs <> 1 then check_identical ~reference ~jobs res)
    measured;
  let oc = open_out out_path in
  output_string oc (Meta.header ~schema:"hbn.bench.parallel/v2");
  Printf.fprintf oc
    " \"topology\":\"balanced-a%dh%d\",\"leaves\":%d,\"objects\":%d,\n\
    \ \"seed\":%d,\"repeats\":%d,%s\n\
    \ \"runs\":[%s],\n\
    \ \"identical\":true}\n"
    arity height (Tree.num_leaves tree) (Workload.num_objects w) seed repeats
    (match prev_seq with
    | None -> ""
    | Some s -> Printf.sprintf "\"prev_seq_seconds\":%.6f," s)
    (String.concat ","
       (List.map
          (fun (jobs, secs, _) ->
            (* The scheduling shape of the per-object fan-out: auto chunk
               size, task count, and tasks per chunk. Deterministic in
               (jobs, objects) — bench/check.exe re-derives and gates
               them. *)
            let chunk = Exec.auto_chunk ~jobs objects in
            let chunks = (objects + chunk - 1) / chunk in
            Printf.sprintf
              "\n\
              \  {\"jobs\":%d,\"seconds\":%.6f,\"speedup\":%.2f,\"chunk\":%d,\"chunks\":%d,\"tasks_per_chunk\":%.2f}"
              jobs secs (base_s /. secs) chunk chunks
              (float_of_int objects /. float_of_int chunks))
          measured));
  close_out oc;
  Printf.printf "wrote %s (detected cores: %d)\n" out_path cores;
  List.iter
    (fun (jobs, secs, _) ->
      Printf.printf "  jobs %d  %8.3f s  speedup %.2fx\n" jobs secs
        (base_s /. secs))
    measured;
  if cores < List.fold_left max 1 job_counts then
    Printf.printf
      "  note: only %d core(s) available; speedups above %dx cannot appear, \
       and job counts above %d oversubscribe this host\n"
      cores cores cores

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ :: path :: _ -> full path
  | _ -> full "BENCH_parallel.json"
