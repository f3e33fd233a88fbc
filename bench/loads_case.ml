(* The hill-climb instance behind BENCH_loads.json, shared between its
   writer (bench/loads.exe) and the regression gate (bench/check.exe),
   which re-runs the engine climb on the committed instance and compares
   the resulting congestion. *)

module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Baselines = Hbn_baselines.Baselines

let schema = "hbn.bench.loads/v1"
let seed = 20260806

(* The committed instance. *)
let topology = "balanced-a4h3"
let arity = 4
let height = 3
let objects = 32
let iterations = 300

let start_copies w =
  Array.init (Workload.num_objects w) (fun obj ->
      match Workload.requesting_leaves w ~obj with
      | [] -> []
      | leaf :: _ -> [ leaf ])

let instance ~arity ~height ~objects =
  let tree = Builders.balanced ~arity ~height ~profile:(Builders.Uniform 2) in
  let w =
    Generators.uniform ~prng:(Prng.create (seed + 1)) tree ~objects ~max_rate:8
  in
  (tree, w)

(* The engine-driven climb ([Baselines.hill_climb]) from the fixed start
   copies and seed. *)
let engine_climb ~iterations w =
  Baselines.hill_climb ~iterations ~prng:(Prng.create seed) w (start_copies w)
