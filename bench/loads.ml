(* Throughput of the incremental load engine vs the from-scratch path.

   Run with:  dune exec bench/loads.exe [-- OUTPUT.json]
          or  dune exec bench/loads.exe -- --smoke
   The full run drives [Baselines.hill_climb] (incremental deltas on one
   [Hbn_loads.Loads] engine) and the test oracle
   [Hbn_ref.Baselines_ref.hill_climb_scratch] (rebuilds Placement.nearest
   and re-evaluates everything per proposal) over the same seed and
   records iterations/sec of each in BENCH_loads.json. The oracle replays
   the engine climb's proposal stream draw for draw, so the placements
   must come out structurally equal — the bench fails (exit 1) if they
   diverge.
   [--smoke] runs a small instance under `dune runtest`: equality only,
   no JSON written. The instance and the engine climb live in Loads_case,
   which bench/check.exe re-runs to gate the committed congestion. *)

module Tree = Hbn_tree.Tree
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Baselines_ref = Hbn_ref.Baselines_ref
module LC = Loads_case

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One matched pair of climbs from identical start states and seeds.
   Returns (engine placement, engine secs, scratch placement, scratch
   secs). The engine runs second so any cache warming favours the
   baseline, not the engine. *)
let run_pair ~iterations w =
  let scratch, scratch_s =
    time (fun () ->
        Baselines_ref.hill_climb_scratch ~iterations
          ~prng:(Prng.create LC.seed) w (LC.start_copies w))
  in
  let engine, engine_s = time (fun () -> LC.engine_climb ~iterations w) in
  (engine, engine_s, scratch, scratch_s)

let smoke () =
  let _, w = LC.instance ~arity:4 ~height:2 ~objects:8 in
  let engine, _, scratch, _ = run_pair ~iterations:40 w in
  if engine <> scratch then begin
    prerr_endline
      "bench/loads --smoke: engine and scratch hill climbs diverged";
    exit 1
  end;
  print_endline "bench/loads --smoke: engine matches scratch (40 iters)"

let full out_path =
  let iterations = LC.iterations in
  let tree, w =
    LC.instance ~arity:LC.arity ~height:LC.height ~objects:LC.objects
  in
  let engine, engine_s, scratch, scratch_s = run_pair ~iterations w in
  let identical = engine = scratch in
  let speedup = scratch_s /. engine_s in
  let ips s = float_of_int iterations /. s in
  let oc = open_out out_path in
  output_string oc (Meta.header ~schema:LC.schema);
  Printf.fprintf oc
    " \"topology\":%S,\"leaves\":%d,\"objects\":%d,\n\
    \ \"iterations\":%d,\"seed\":%d,\n\
    \ \"scratch\":{\"seconds\":%.6f,\"iters_per_sec\":%.1f},\n\
    \ \"engine\":{\"seconds\":%.6f,\"iters_per_sec\":%.1f},\n\
    \ \"speedup\":%.2f,\"identical\":%b,\n\
    \ \"congestion\":%.3f}\n"
    LC.topology (Tree.num_leaves tree) (Workload.num_objects w) iterations
    LC.seed scratch_s (ips scratch_s) engine_s (ips engine_s) speedup
    identical (Placement.congestion w engine);
  close_out oc;
  Printf.printf
    "wrote %s\n\
    \  scratch  %8.1f iters/sec (%.3f s)\n\
    \  engine   %8.1f iters/sec (%.3f s)\n\
    \  speedup  %.1fx, identical placements: %b\n"
    out_path (ips scratch_s) scratch_s (ips engine_s) engine_s speedup
    identical;
  if not identical then begin
    prerr_endline "bench/loads: engine and scratch hill climbs diverged";
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ :: path :: _ -> full path
  | _ -> full "BENCH_loads.json"
