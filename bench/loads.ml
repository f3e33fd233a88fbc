(* Throughput of the incremental load engine vs the from-scratch path.

   Run with:  dune exec bench/loads.exe [-- OUTPUT.json]
          or  dune exec bench/loads.exe -- --smoke
   The full run drives [Baselines.hill_climb] (incremental deltas on one
   [Hbn_loads.Loads] engine) and [Baselines.hill_climb_scratch] (rebuilds
   Placement.nearest and re-evaluates everything per proposal) over the
   same seed and records iterations/sec of each in BENCH_loads.json.
   Both paths share one proposal generator, so the placements must come
   out structurally equal — the bench fails (exit 1) if they diverge.
   [--smoke] runs a small instance under `dune runtest`: equality only,
   no JSON written. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Baselines = Hbn_baselines.Baselines

let seed = 20260806

let start_copies w =
  Array.init (Workload.num_objects w) (fun obj ->
      match Workload.requesting_leaves w ~obj with
      | [] -> []
      | leaf :: _ -> [ leaf ])

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One matched pair of climbs from identical start states and seeds.
   Returns (engine placement, engine secs, scratch placement, scratch
   secs). The engine runs second so any cache warming favours the
   baseline, not the engine. *)
let run_pair ~iterations w =
  let copies = start_copies w in
  let scratch, scratch_s =
    time (fun () ->
        Baselines.hill_climb_scratch ~iterations ~prng:(Prng.create seed) w
          copies)
  in
  let engine, engine_s =
    time (fun () ->
        Baselines.hill_climb ~iterations ~prng:(Prng.create seed) w copies)
  in
  (engine, engine_s, scratch, scratch_s)

let instance ~arity ~height ~objects =
  let tree = Builders.balanced ~arity ~height ~profile:(Builders.Uniform 2) in
  let w =
    Generators.uniform ~prng:(Prng.create (seed + 1)) tree ~objects ~max_rate:8
  in
  (tree, w)

let smoke () =
  let _, w = instance ~arity:4 ~height:2 ~objects:8 in
  let engine, _, scratch, _ = run_pair ~iterations:40 w in
  if engine <> scratch then begin
    prerr_endline
      "bench/loads --smoke: engine and scratch hill climbs diverged";
    exit 1
  end;
  print_endline "bench/loads --smoke: engine matches scratch (40 iters)"

let full out_path =
  let iterations = 300 in
  let tree, w = instance ~arity:4 ~height:3 ~objects:32 in
  let engine, engine_s, scratch, scratch_s = run_pair ~iterations w in
  let identical = engine = scratch in
  let speedup = scratch_s /. engine_s in
  let ips s = float_of_int iterations /. s in
  let oc = open_out out_path in
  output_string oc (Meta.header ~schema:"hbn.bench.loads/v1");
  Printf.fprintf oc
    " \"topology\":\"balanced-a4h3\",\"leaves\":%d,\"objects\":%d,\n\
    \ \"iterations\":%d,\"seed\":%d,\n\
    \ \"scratch\":{\"seconds\":%.6f,\"iters_per_sec\":%.1f},\n\
    \ \"engine\":{\"seconds\":%.6f,\"iters_per_sec\":%.1f},\n\
    \ \"speedup\":%.2f,\"identical\":%b,\n\
    \ \"congestion\":%.3f}\n"
    (Tree.num_leaves tree) (Workload.num_objects w) iterations seed scratch_s
    (ips scratch_s) engine_s (ips engine_s) speedup identical
    (Placement.congestion w engine);
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
