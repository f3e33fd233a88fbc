(* The pipeline benchmark's case matrix, one row of the Matrix table
   that the writer (bench/record.exe) and the regression gate
   (bench/check.exe) share.

   The PRNG is threaded through the whole matrix in order, so the cases
   are only reproducible as one sequence from [seed] — both consumers
   must run [all ()] whole, never individual cases. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Sim = Hbn_sim.Sim
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Metrics = Hbn_obs.Metrics

let schema = "hbn.bench.pipeline/v1"
let seed = 20260806
let objects = 32

type case = {
  topology : string;
  workload : string;
  phases : (string * int * int64) list;  (* name, calls, total ns *)
  counters : (string * int) list;
  nodes : int;
  leaves : int;
  objects : int;
  requests : int;
  congestion : float;
  makespan : int;
}

let topologies prng =
  [
    ("balanced-a3h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2));
    ("caterpillar-12x3", Builders.caterpillar ~spine:12 ~leaves_per_bus:3 ~profile:(Builders.Uniform 2));
    ("random-b12l24", Builders.random ~prng ~buses:12 ~leaves:24 ~profile:(Builders.Uniform 2));
    ("star-24", Builders.star ~leaves:24 ~profile:(Builders.Uniform 4));
  ]

let workload_of name ~prng tree ~objects =
  match name with
  | "uniform" -> Generators.uniform ~prng tree ~objects ~max_rate:8
  | "zipf" ->
    Generators.zipf_popularity ~prng tree ~objects ~requests_per_leaf:24
      ~exponent:1.1 ~write_fraction:0.3
  | "hotspot" ->
    Generators.hotspot ~prng tree ~objects ~writers_per_object:2 ~write_rate:8
      ~read_rate:6
  | _ -> invalid_arg "workload_of"

let run_case ~prng ~topology:(tname, tree) ~workload:wname ~objects =
  let w = workload_of wname ~prng tree ~objects in
  Metrics.reset Metrics.global;
  let sink, read_timings = Sink.timings () in
  let congestion, makespan =
    Trace.with_sink sink (fun () ->
        let res = Strategy.run w in
        let out = Sim.run ~scale:4 w res.Strategy.placement in
        (Placement.congestion w res.Strategy.placement, out.Sim.makespan))
  in
  {
    topology = tname;
    workload = wname;
    phases = read_timings ();
    counters = Metrics.counters Metrics.global;
    nodes = Tree.n tree;
    leaves = Tree.num_leaves tree;
    objects;
    requests = Workload.total_requests w;
    congestion;
    makespan;
  }

let all () =
  let prng = Prng.create seed in
  List.concat_map
    (fun topology ->
      List.map
        (fun workload -> run_case ~prng ~topology ~workload ~objects)
        [ "uniform"; "zipf"; "hotspot" ])
    (topologies prng)

(* Minimal JSON printing: every name in a record is plain ASCII, so
   OCaml's %S escaping coincides with JSON string escaping. *)
let json_of_case c =
  let buf = Buffer.create 512 in
  let str s = Printf.sprintf "%S" s in
  Buffer.add_string buf
    (Printf.sprintf
       "    {\"topology\":%s,\"workload\":%s,\"nodes\":%d,\"leaves\":%d,\
        \"objects\":%d,\"requests\":%d,\"congestion\":%.3f,\"makespan\":%d,\n"
       (str c.topology) (str c.workload) c.nodes c.leaves c.objects c.requests
       c.congestion c.makespan);
  Buffer.add_string buf "     \"phases\":{";
  List.iteri
    (fun i (name, calls, total_ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"calls\":%d,\"total_ns\":%Ld}" (str name) calls
           total_ns))
    c.phases;
  Buffer.add_string buf "},\n     \"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (str name) v))
    c.counters;
  Buffer.add_string buf "}}";
  Buffer.contents buf
