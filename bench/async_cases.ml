(* The asynchronous-simulation benchmark's case matrix, one row of the
   Matrix table that the writer (bench/record.exe) and the regression
   gate (bench/check.exe) share.

   One workload and placement per topology, then one simulator run per
   link model over the {e identical} traffic. The deterministic payload
   is therefore a controlled experiment: across the link rows of a
   topology, packets / transmissions / congestion / dilation are pinned
   equal (the traffic is a function of workload and placement alone),
   while completion — the virtual time of the last delivered hop — moves
   with the per-level delay/bandwidth profile. A diff against the
   committed BENCH_async.json means the tick loop, the link model or the
   simulator's grant schedule changed, not just speed. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Sim = Hbn_sim.Sim
module Link = Hbn_event.Link

let schema = "hbn.bench.async/v1"
let seed = 20260808
let objects = 12
let scale = 2

type case = {
  topology : string;
  link : string;  (* "sync" for the synchronous engine, else the spec *)
  makespan : int;  (* allocator ticks *)
  completion : float;  (* virtual time of the last hop's arrival *)
  packets : int;
  transmissions : int;
  congestion : float;
  max_dilation : int;
}

let topologies () =
  [
    ("balanced-a3h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2));
    ("caterpillar-8x2", Builders.caterpillar ~spine:8 ~leaves_per_bus:2 ~profile:(Builders.Uniform 2));
  ]

(* [None] is the synchronous engine (no link model at all); "1:inf" is
   {!Link.sync}, which must reproduce it bit for bit. The remaining rows
   bend one knob each: uniform finite bandwidth, a slow top level, a slow
   lower tier, and a long uniform propagation delay. *)
let links =
  [ None; Some "1:inf"; Some "1:8"; Some "1:1,1:8"; Some "1:8,1:1"; Some "4:8" ]

let link_name = function None -> "sync" | Some spec -> spec

let run_case ~w ~placement ~topology ~link =
  let cfg =
    Option.map
      (fun spec ->
        match Link.of_spec spec with
        | Ok c -> c
        | Error e ->
          invalid_arg (Printf.sprintf "async_cases: bad link %S: %s" spec e))
      link
  in
  let out = Sim.run ~scale ?link:cfg w placement in
  {
    topology;
    link = link_name link;
    makespan = out.Sim.makespan;
    completion = out.Sim.completion;
    packets = out.Sim.packets;
    transmissions = out.Sim.transmissions;
    congestion = Placement.congestion w placement;
    max_dilation = out.Sim.max_dilation;
  }

(* The invariants the matrix exists to demonstrate, checked at build
   time on every run (writer and gate alike), so a committed baseline
   can never encode a violation. *)
let validate_group ~topology cases =
  let bad fmt = Printf.ksprintf invalid_arg ("async_cases: " ^^ fmt) in
  let base = List.hd cases in
  List.iter
    (fun c ->
      if
        c.packets <> base.packets
        || c.transmissions <> base.transmissions
        || c.congestion <> base.congestion
        || c.max_dilation <> base.max_dilation
      then
        bad "%s: traffic varies with link %s — congestion is no longer \
             schedule-independent"
          topology c.link)
    cases;
  (match
     ( List.find_opt (fun c -> c.link = "sync") cases,
       List.find_opt (fun c -> c.link = "1:inf") cases )
   with
  | Some s, Some u ->
    if s.makespan <> u.makespan || s.completion <> u.completion then
      bad "%s: Link.sync (1:inf) diverged from the synchronous engine \
           (makespan %d/%d, completion %g/%g)"
        topology s.makespan u.makespan s.completion u.completion
  | _ -> bad "%s: matrix lost its sync/1:inf rows" topology);
  let asym =
    List.filter (fun c -> c.link = "1:8" || c.link = "1:1,1:8" || c.link = "1:8,1:1") cases
  in
  let completions = List.sort_uniq compare (List.map (fun c -> c.completion) asym) in
  if List.length completions < 2 then
    bad "%s: completion is flat across bandwidth-asymmetric links — the \
         link model has no effect"
      topology

let instance ~prng tree =
  let w = Generators.uniform ~prng tree ~objects ~max_rate:8 in
  (w, (Strategy.run w).Strategy.placement)

let all () =
  let prng = Prng.create seed in
  List.concat_map
    (fun (topology, tree) ->
      let w, placement = instance ~prng tree in
      let cases =
        List.map (fun link -> run_case ~w ~placement ~topology ~link) links
      in
      validate_group ~topology cases;
      cases)
    (topologies ())

(* The first topology's traffic (the first draw from [seed], as in
   [all]) on a uniformly starved link, "1:1" (bandwidth 1 under bus caps
   of 2, so every hop is slower on both axes), against its sync row:
   traffic stays pinned and completion strictly rises. "1:1" is not a
   matrix row. *)
let contract cases =
  let topology, tree = List.hd (topologies ()) in
  let w, placement = instance ~prng:(Prng.create seed) tree in
  let sync =
    List.find (fun c -> c.topology = topology && c.link = "sync") cases
  in
  let slow = run_case ~w ~placement ~topology ~link:(Some "1:1") in
  if
    sync.packets <> slow.packets
    || sync.transmissions <> slow.transmissions
    || sync.congestion <> slow.congestion
  then [ Printf.sprintf "traffic varied with the link model on %s" topology ]
  else if slow.completion <= sync.completion then
    [
      Printf.sprintf
        "halved bandwidth did not raise completion (%g vs %g) on %s"
        slow.completion sync.completion topology;
    ]
  else []

let json_of_case c =
  Printf.sprintf
    "    {\"topology\":%S,\"link\":%S,\"makespan\":%d,\"completion\":%.3f,\
     \"packets\":%d,\"transmissions\":%d,\"congestion\":%.3f,\
     \"max_dilation\":%d}"
    c.topology c.link c.makespan c.completion c.packets c.transmissions
    c.congestion c.max_dilation
