(* Command-line interface to the library.

   hbn_cli topology  --kind balanced --arity 3 --height 3 --dot
   hbn_cli place     --kind random --buses 8 --leaves 16 --workload zipf
   hbn_cli compare   --kind caterpillar --spine 8 --workload hotspot
   hbn_cli gadget    3 1 1 2 3 2
   hbn_cli simulate  --kind star --leaves 12 --workload uniform *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Partition = Hbn_workload.Partition
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Certificates = Hbn_core.Certificates
module Baselines = Hbn_baselines.Baselines
module Lower_bounds = Hbn_exact.Lower_bounds
module Gadget_opt = Hbn_exact.Gadget_opt
module Sim = Hbn_sim.Sim
module Link = Hbn_event.Link
module Dist = Hbn_dist.Dist
module Dist_nibble = Hbn_dist.Dist_nibble
module Faults = Hbn_dist.Faults
module Runtime = Hbn_dist.Runtime
module Table = Hbn_util.Table
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Metrics = Hbn_obs.Metrics
module Attribution = Hbn_obs.Attribution
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Report = Hbn_obs.Report
module Exec = Hbn_exec.Exec
module Serve = Hbn_serve.Serve
module Drift = Hbn_serve.Drift

open Cmdliner

(* Every failure path exits through here so the exit code is uniformly
   non-zero (the subcommands used to differ). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "hbn_cli: %s\n" msg;
      exit 1)
    fmt

(* -- shared options ----------------------------------------------------- *)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (deterministic).")

let kind =
  Arg.(
    value
    & opt (enum [ ("star", `Star); ("balanced", `Balanced);
                  ("caterpillar", `Caterpillar); ("random", `Random);
                  ("rings", `Rings) ])
        `Balanced
    & info [ "kind" ] ~doc:"Topology family: star|balanced|caterpillar|random|rings.")

let leaves = Arg.(value & opt int 12 & info [ "leaves" ] ~doc:"Processor count.")
let arity = Arg.(value & opt int 3 & info [ "arity" ] ~doc:"Balanced-tree arity.")
let height = Arg.(value & opt int 3 & info [ "height" ] ~doc:"Balanced-tree height.")
let spine = Arg.(value & opt int 6 & info [ "spine" ] ~doc:"Caterpillar spine length.")
let buses = Arg.(value & opt int 6 & info [ "buses" ] ~doc:"Random-topology bus count.")
let bandwidth = Arg.(value & opt int 2 & info [ "bandwidth" ] ~doc:"Uniform bus/switch bandwidth.")

let workload_kind =
  Arg.(
    value
    & opt (enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("hotspot", `Hotspot);
                  ("prodcons", `Prodcons); ("local", `Local) ])
        `Uniform
    & info [ "workload" ] ~doc:"Workload family: uniform|zipf|hotspot|prodcons|local.")

let objects = Arg.(value & opt int 10 & info [ "objects" ] ~doc:"Shared object count.")

let jobs =
  Arg.(
    value
    & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run the per-object pipeline on $(docv) domains (default 1, \
           sequential). Results are bit-identical at any value.")

(* Runs [f] with a runner for [--jobs n]; the worker domains are torn
   down before the command exits. *)
let with_jobs jobs f =
  if jobs < 1 then die "--jobs must be >= 1 (got %d)" jobs;
  Exec.with_runner ~jobs f

(* -- observability ------------------------------------------------------ *)

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL trace (spans, events, gauges, final counter \
           totals) to $(docv). See README section Observability for the \
           event schema.")

let timings =
  Arg.(
    value
    & flag
    & info [ "timings" ]
        ~doc:"Print a per-phase wall-time table after the command.")

(* Installs the requested sinks around [f]: a JSONL writer for [--trace],
   a span-duration aggregator for [--timings], or their tee. Every event
   is tagged with the executor slot of the domain that emitted it
   ([domain:0] outside a pool — pool tasks never trace, so the tag also
   keeps traces byte-identical across job counts). With neither flag the
   tracer stays disabled and [f] runs untouched. *)
let with_observability ~trace ~timings f =
  let timing_sink, timing_read =
    if timings then
      let s, read = Sink.timings () in
      (Some s, Some read)
    else (None, None)
  in
  let file_sink, close_file =
    match trace with
    | None -> (None, fun () -> ())
    | Some path -> (
      match open_out path with
      | oc -> (Some (Sink.jsonl oc), fun () -> close_out oc)
      | exception Sys_error m -> die "cannot open trace file: %s" m)
  in
  let sink =
    match (file_sink, timing_sink) with
    | None, None -> None
    | Some s, None | None, Some s -> Some s
    | Some a, Some b -> Some (Sink.tee a b)
  in
  let sink =
    Option.map
      (Sink.with_attrs (fun () ->
           [ ("domain", Sink.Int (Exec.current_worker ())) ]))
      sink
  in
  (match sink with
  | None -> ()
  | Some s ->
    Metrics.reset Metrics.global;
    Trace.set_sink (Some s));
  Fun.protect
    ~finally:(fun () ->
      (match sink with
      | None -> ()
      | Some s ->
        Metrics.emit Metrics.global s;
        Trace.set_sink None);
      close_file ();
      match timing_read with
      | None -> ()
      | Some read ->
        let table =
          Table.create [ "phase"; "calls"; "total ms"; "mean ms" ]
        in
        List.iter
          (fun (name, calls, total_ns) ->
            let total_ms = Int64.to_float total_ns /. 1e6 in
            Table.add_row table
              [
                name;
                string_of_int calls;
                Table.fmt_float total_ms;
                Table.fmt_float (total_ms /. float_of_int calls);
              ])
          (read ());
        Table.print table)
    f

(* The --jobs/--trace/--timings bundle every pipeline-running subcommand
   (place, compare, simulate, explain) shares — parsed by one term and
   installed by one helper, so the commands cannot drift apart. *)
type run_opts = { ro_jobs : int; ro_trace : string option; ro_timings : bool }

let run_opts_term =
  let make ro_jobs ro_trace ro_timings = { ro_jobs; ro_trace; ro_timings } in
  Term.(const make $ jobs $ trace_file $ timings)

let with_run_opts opts f =
  with_observability ~trace:opts.ro_trace ~timings:opts.ro_timings @@ fun () ->
  with_jobs opts.ro_jobs f

let build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth =
  let profile = Builders.Uniform bandwidth in
  match kind with
  | `Star -> Builders.star ~leaves ~profile
  | `Balanced -> Builders.balanced ~arity ~height ~profile
  | `Caterpillar ->
    Builders.caterpillar ~spine ~leaves_per_bus:(max 1 (leaves / max 1 spine))
      ~profile
  | `Random -> Builders.random ~prng ~buses ~leaves ~profile
  | `Rings ->
    Builders.of_ring
      (Builders.sample_ring_of_rings ~prng ~depth:height ~fanout:2
         ~procs_per_ring:3)

let build_workload kind ~prng tree ~objects =
  match kind with
  | `Uniform -> Generators.uniform ~prng tree ~objects ~max_rate:8
  | `Zipf ->
    Generators.zipf_popularity ~prng tree ~objects ~requests_per_leaf:24
      ~exponent:1.1 ~write_fraction:0.3
  | `Hotspot ->
    Generators.hotspot ~prng tree ~objects ~writers_per_object:2 ~write_rate:8
      ~read_rate:6
  | `Prodcons ->
    Generators.producer_consumer ~prng tree ~objects ~consumers:4 ~rate:6
  | `Local ->
    Generators.local_with_background ~prng tree ~objects ~local_rate:40
      ~background_rate:2

(* -- topology ----------------------------------------------------------- *)

let topology_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a summary.") in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the network to FILE.")
  in
  let load =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Read the network from FILE instead of generating one.")
  in
  let run seed kind leaves arity height spine buses bandwidth dot save load =
    let prng = Prng.create seed in
    let t =
      match load with
      | None -> build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth
      | Some path -> (
        match Hbn_tree.Topology_io.load ~path with
        | Ok t -> t
        | Error m -> die "cannot load %s: %s" path m)
    in
    (match save with
    | None -> ()
    | Some path ->
      Hbn_tree.Topology_io.save t ~path;
      Printf.printf "saved to %s\n" path);
    if dot then print_string (Tree.to_dot t)
    else begin
      Format.printf "%a@." Tree.pp t;
      match Tree.validate_paper_assumptions t with
      | Ok () -> print_endline "paper assumptions: ok (unit processor switches)"
      | Error m -> Printf.printf "paper assumptions violated: %s\n" m
    end
  in
  Cmd.v (Cmd.info "topology" ~doc:"Generate, load, save and inspect a hierarchical bus network.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ dot $ save $ load)

(* -- place -------------------------------------------------------------- *)

let place_cmd =
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-object copy sets.") in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ]
          ~doc:"Per-processor copy capacity (post-processes the placement).")
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      verbose capacity opts =
    with_run_opts opts @@ fun exec ->
    let prng = Prng.create seed in
    let t = build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth in
    let w = build_workload wkind ~prng t ~objects in
    let res = Strategy.run ~exec w in
    let res =
      match capacity with
      | None -> res
      | Some cap ->
        (match Hbn_core.Capacitated.apply w ~capacity:(fun _ -> cap)
                 res.Strategy.placement with
        | out ->
          Printf.printf
            "capacity %d: %d relocations, %d merges applied\n" cap
            out.Hbn_core.Capacitated.relocations
            out.Hbn_core.Capacitated.merges;
          { res with Strategy.placement = out.Hbn_core.Capacitated.placement }
        | exception Hbn_core.Capacitated.Infeasible msg ->
          Printf.printf "capacity %d infeasible: %s\n" cap msg;
          res)
    in
    let c = Placement.evaluate ~exec w res.Strategy.placement in
    Printf.printf "network: %d processors, %d buses, height %d\n"
      (Tree.num_leaves t) (List.length (Tree.buses t)) (Tree.height t);
    Printf.printf "workload: %d objects, %d requests\n" objects
      (Workload.total_requests w);
    Printf.printf "congestion: %.3f  (bottleneck %s)\n" c.Placement.value
      (match c.Placement.bottleneck with
      | `Edge e -> Printf.sprintf "edge %d" e
      | `Bus b -> Printf.sprintf "bus %d" b);
    Printf.printf "lower bound: %.3f  (certified ratio <= %.3f; proven <= 7)\n"
      (Lower_bounds.combined w)
      (if Lower_bounds.combined w > 0. then c.Placement.value /. Lower_bounds.combined w
       else Float.nan);
    Printf.printf "deletions: %d, clone splits: %d, tau_max: %d\n"
      res.Strategy.deletions res.Strategy.splits res.Strategy.tau_max;
    (if capacity = None then
       match Certificates.check_all w res with
       | Ok () -> print_endline "certificates: all hold (Obs 3.2, Lemmas 4.5/4.6)"
       | Error m -> Printf.printf "CERTIFICATE FAILURE: %s\n" m
     else
       print_endline
         "certificates: skipped (capacity post-processing voids the factor-7 \
          analysis)");
    if verbose then
      Array.iteri
        (fun obj _ ->
          Printf.printf "  object %2d -> [%s]\n" obj
            (String.concat "; "
               (List.map string_of_int
                  (Placement.copies res.Strategy.placement ~obj))))
        res.Strategy.placement
  in
  Cmd.v (Cmd.info "place" ~doc:"Run the extended-nibble strategy on a generated instance.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ verbose $ capacity
          $ run_opts_term)

(* -- explain ------------------------------------------------------------ *)

let explain_cmd =
  let top =
    Arg.(
      value
      & opt int 3
      & info [ "top" ] ~docv:"K" ~doc:"Number of hottest sites to explain.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("dot", `Dot) ]) `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) prints per-site contributor tables, \
             $(b,json) a hbn.explain/v1 document, $(b,dot) a Graphviz \
             heatmap of the whole network.")
  in
  let site_name = function
    | `Edge e -> Printf.sprintf "edge %d" e
    | `Bus b -> Printf.sprintf "bus %d" b
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      top format opts =
    with_run_opts opts @@ fun exec ->
    let prng = Prng.create seed in
    let t = build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth in
    let w = build_workload wkind ~prng t ~objects in
    let res = Strategy.run ~exec w in
    let attr = Attribution.of_placement w res.Strategy.placement in
    (* Cross-check: per-edge contribution sums must reproduce the
       evaluator's loads, and the top hotspot its congestion/bottleneck. *)
    let c = Placement.evaluate ~exec w res.Strategy.placement in
    if Attribution.totals attr <> c.Placement.edge_loads then
      die "attribution totals diverge from Placement.evaluate";
    (match Attribution.hotspots attr ~k:1 with
    | [] -> ()
    | (site, rel) :: _ ->
      if rel <> c.Placement.value then
        die "top hotspot relative load %.6f <> congestion %.6f" rel
          c.Placement.value;
      if site <> (c.Placement.bottleneck :> Attribution.site) then
        die "top hotspot %s <> bottleneck %s" (site_name site)
          (site_name c.Placement.bottleneck));
    match format with
    | `Json -> print_endline (Attribution.to_json ~k:top attr)
    | `Dot -> print_string (Attribution.to_dot attr)
    | `Table ->
      Printf.printf "congestion: %.3f  (bottleneck %s)\n" c.Placement.value
        (site_name c.Placement.bottleneck);
      List.iteri
        (fun i (site, rel) ->
          let total, contribs =
            match site with
            | `Edge e ->
              ( Attribution.edge_total attr ~edge:e,
                Attribution.edge_contributions attr ~edge:e )
            | `Bus b ->
              ( Attribution.bus_total2 attr ~bus:b,
                Attribution.bus_contributions attr ~bus:b )
          in
          let bw =
            match site with
            | `Edge e -> Tree.edge_bandwidth t e
            | `Bus b -> Tree.bus_bandwidth t b
          in
          Printf.printf "#%d %s: load %d%s, bandwidth %d, relative %.3f\n"
            (i + 1) (site_name site) total
            (match site with `Bus _ -> " (doubled)" | `Edge _ -> "")
            bw rel;
          let table = Table.create [ "object"; "component"; "amount"; "share" ] in
          List.iter
            (fun { Attribution.obj; component; amount } ->
              Table.add_row table
                [
                  string_of_int obj;
                  Placement.component_name component;
                  string_of_int amount;
                  Printf.sprintf "%.1f%%"
                    (100. *. float_of_int amount /. float_of_int total);
                ])
            contribs;
          Table.print table)
        (Attribution.hotspots attr ~k:top)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every edge's load to (object, component) contributors \
          and explain the hottest sites.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ top $ format $ run_opts_term)

(* -- workload ----------------------------------------------------------- *)

let workload_cmd =
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the workload to FILE.")
  in
  let load =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Read the workload from FILE instead of generating one \
                   (requires --topology-file for the matching network).")
  in
  let topo_file =
    Arg.(value & opt (some string) None
         & info [ "topology-file" ] ~docv:"FILE"
             ~doc:"Load the network from FILE instead of generating it.")
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      save load topo_file =
    let prng = Prng.create seed in
    let t =
      match topo_file with
      | None ->
        build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth
      | Some path -> (
        match Hbn_tree.Topology_io.load ~path with
        | Ok t -> t
        | Error m -> die "cannot load %s: %s" path m)
    in
    let w =
      match load with
      | None -> build_workload wkind ~prng t ~objects
      | Some path -> (
        match Hbn_workload.Workload_io.load t ~path with
        | Ok w -> w
        | Error m -> die "cannot load %s: %s" path m)
    in
    (match save with
    | None -> ()
    | Some path ->
      Hbn_workload.Workload_io.save w ~path;
      Printf.printf "saved to %s\n" path);
    Format.printf "%a@." Workload.pp w
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate, load, save and summarize a workload.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ save $ load $ topo_file)

(* -- dynamic ------------------------------------------------------------ *)

let dynamic_cmd =
  let requests_kind =
    Arg.(
      value
      & opt (enum [ ("shuffled", `Shuffled); ("bursty", `Bursty) ]) `Shuffled
      & info [ "requests" ] ~doc:"Request order: shuffled|bursty.")
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      requests_kind =
    let prng = Prng.create seed in
    let t = build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth in
    let w = build_workload wkind ~prng t ~objects in
    let table =
      Table.create
        [ "object"; "requests"; "online"; "offline OPT"; "worst edge ratio";
          "repl"; "migr"; "peak copies" ]
    in
    for obj = 0 to objects - 1 do
      let reqs =
        match requests_kind with
        | `Shuffled -> Hbn_dynamic.Request.of_workload ~prng w ~obj
        | `Bursty -> Hbn_dynamic.Request.bursty ~prng w ~obj ~burst:8
      in
      match reqs with
      | [] -> ()
      | first :: _ ->
        let initial = first.Hbn_dynamic.Request.node in
        let dyn = Hbn_dynamic.Online.run t ~initial reqs in
        let opt = Hbn_dynamic.Offline.per_edge_optimum t ~initial reqs in
        let worst = ref 0. in
        Array.iteri
          (fun e l ->
            if opt.(e) > 0 then
              worst := Float.max !worst (float_of_int l /. float_of_int opt.(e)))
          dyn.Hbn_dynamic.Online.edge_loads;
        Table.add_row table
          [
            string_of_int obj;
            string_of_int dyn.Hbn_dynamic.Online.served;
            string_of_int
              (Array.fold_left ( + ) 0 dyn.Hbn_dynamic.Online.edge_loads);
            string_of_int (Array.fold_left ( + ) 0 opt);
            Table.fmt_float !worst;
            string_of_int dyn.Hbn_dynamic.Online.replications;
            string_of_int dyn.Hbn_dynamic.Online.migrations;
            string_of_int dyn.Hbn_dynamic.Online.max_copies;
          ]
    done;
    Table.print table;
    print_endline
      "worst edge ratio compares against the exact per-edge offline optimum \
       (competitive ratio 3 for trees, per the paper's reference [10])"
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:"Run the online dynamic strategy and compare with the offline optimum.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ requests_kind)

(* -- compare ------------------------------------------------------------ *)

let compare_cmd =
  let ls_iters =
    Arg.(
      value
      & opt int 100
      & info [ "ls-iters" ]
          ~doc:
            "Hill-climb proposals for the local-search baseline (each one \
             is an incremental delta on the load engine, so large values \
             stay cheap).")
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      ls_iters opts =
    with_run_opts opts @@ fun exec ->
    let prng = Prng.create seed in
    let t = build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth in
    let w = build_workload wkind ~prng t ~objects in
    let lb = Lower_bounds.combined w in
    let table = Table.create [ "strategy"; "congestion"; "C/LB"; "total load"; "makespan" ] in
    List.iter
      (fun (name, p) ->
        let c = Placement.congestion ~exec w p in
        Table.add_row table
          [
            name;
            Table.fmt_float c;
            Table.fmt_ratio c lb;
            string_of_int (Placement.total_load w p);
            string_of_int (Sim.run ~scale:4 w p).Sim.makespan;
          ])
      [
        ("extended-nibble", (Strategy.run ~exec w).Strategy.placement);
        ("owner", Baselines.owner w);
        ("gravity-leaf", Baselines.gravity_leaf w);
        ("random-leaf", Baselines.random_leaf ~prng w);
        ("full-replication", Baselines.full_replication w);
        ("local-search", Baselines.local_search ~iterations:ls_iters ~prng w);
      ];
    Table.print table;
    Printf.printf "lower bound (certified): %.3f\n" lb
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare placement strategies on one instance.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ ls_iters $ run_opts_term)

(* -- gadget ------------------------------------------------------------- *)

let gadget_cmd =
  let items =
    Arg.(non_empty & pos_all int [] & info [] ~docv:"ITEM" ~doc:"PARTITION items (positive).")
  in
  let run items =
    let inst =
      match Partition.make items with
      | inst -> inst
      | exception Invalid_argument m -> die "%s" m
    in
    (match Partition.half inst with
    | None ->
      Printf.printf "item sum %d is odd: PARTITION trivially unsolvable\n"
        (Partition.sum inst)
    | Some k ->
      let g = Partition.gadget inst in
      let w = g.Partition.workload in
      Printf.printf "gadget: 4-ary tree of height 1, %d objects, k = %d\n"
        (Workload.num_objects w) k;
      Printf.printf "PARTITION solvable: %b\n" (Partition.solvable inst);
      let opt = Gadget_opt.family_optimum inst in
      Printf.printf "optimal congestion: %d (4k = %d)\n" opt (4 * k);
      (match Partition.find_subset inst with
      | Some s ->
        let p = Placement.single w (Partition.yes_placement g s) in
        Printf.printf "witness: x_i of {%s} on s, rest on s̄, y on a -> congestion %.0f\n"
          (String.concat ", " (List.map string_of_int s))
          (Placement.congestion w p)
      | None -> ());
      let res = Strategy.run w in
      Printf.printf "extended-nibble: %.0f (ratio %.2f)\n"
        (Placement.congestion w res.Strategy.placement)
        (Placement.congestion w res.Strategy.placement /. float_of_int opt))
  in
  Cmd.v (Cmd.info "gadget" ~doc:"Encode a PARTITION instance into the Theorem 2.1 gadget.")
    Term.(const run $ items)

(* -- simulate ----------------------------------------------------------- *)

let simulate_cmd =
  let scale = Arg.(value & opt int 4 & info [ "scale" ] ~doc:"Frequency downscaling for the simulation.") in
  let telemetry_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Record per-round runtime telemetry (sent/delivered/dropped \
             messages, bytes, retransmits, duplicate suppressions, live \
             nodes, hottest-edge utilization) and write it to $(docv) as \
             JSONL series events — the packet simulation under prefix \
             $(b,sim), the hardened distributed protocol (with --faults) \
             under prefix $(b,dist). A drift monitor watches each series \
             online: the command prints a health verdict per engine \
             (steady/drifting/degrading) and any change-point alerts are \
             appended to $(docv) as $(b,alert) events. Feed the file to \
             $(b,hbn_cli report) (or $(b,report --diff) against an older \
             run). The file is bit-identical across reruns and --jobs \
             values.")
  in
  let faults_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Run the distributed protocol under a deterministic fault \
             plan instead of the lossless emulation. $(docv) is \
             comma-separated clauses: drop=P (per-message drop \
             probability), until=R (drop horizon, default inf), \
             crash=N:A-B (node N down rounds A..B, B may be 'inf'), \
             cut=E:A-B (edge E severed rounds A..B); e.g. \
             drop=0.1,until=200,crash=3:10-40. The plan is seeded from \
             --seed, so reruns are bit-identical.")
  in
  let link_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "link" ] ~docv:"SPEC"
          ~doc:
            "Give every tree level its own link delay and bandwidth and \
             run the simulation (and, with --faults, the distributed \
             recovery) over virtual time. \
             $(docv) is comma-separated DELAY:BANDWIDTH clauses, \
             root-down, one per level; a short spec extends its last \
             clause to deeper levels and BANDWIDTH may be 'inf' \
             (transmission is instantaneous, only the delay remains); \
             e.g. 1:8,2:2 or 1:inf. The spec '1:inf' is the synchronous \
             regime and reproduces the default schedule bit for bit.")
  in
  let run seed kind leaves arity height spine buses bandwidth wkind objects
      scale faults_spec link_spec telemetry_path opts =
    if scale < 1 then die "--scale must be >= 1 (got %d)" scale;
    with_run_opts opts @@ fun exec ->
    let prng = Prng.create seed in
    let t = build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth in
    let w = build_workload wkind ~prng t ~objects in
    (* One collector per engine so the sim schedule and the distributed
       protocol each get their own round axis in the output file. *)
    let mk_tel () =
      Option.map
        (fun _ -> Telemetry.create ~num_edges:(Tree.num_edges t) ())
        telemetry_path
    in
    let sim_tel = mk_tel () in
    let dist_tel = mk_tel () in
    (* A drift monitor rides along with each collector and ingests its
       folded series once the run is over. The prefix matches the
       collector's emit prefix, so alert series names agree with the
       telemetry series at the source. *)
    let mk_mon prefix =
      Option.map (fun _ -> Monitor.create ~prefix ()) telemetry_path
    in
    let sim_mon = mk_mon "sim" in
    let dist_mon = mk_mon "dist" in
    let print_health what tel mon =
      match (tel, mon) with
      | Some tel, Some mon ->
        Monitor.ingest mon tel;
        let v = Monitor.health mon in
        let alerts =
          match v with
          | Monitor.Steady -> []
          | Monitor.Drifting l | Monitor.Degrading l -> l
        in
        Printf.printf "health (%s): %s%s\n" what (Monitor.verdict_name v)
          (match alerts with
          | [] -> ""
          | l ->
            Printf.sprintf " (%d alert%s, first: %s %s@r%d)" (List.length l)
              (if List.length l = 1 then "" else "s")
              (List.hd l).Monitor.a_series
              (Monitor.kind_name (List.hd l).Monitor.a_kind)
              (List.hd l).Monitor.a_round)
      | _ -> ()
    in
    let link =
      Option.map
        (fun spec ->
          match Link.of_spec spec with
          | Ok c -> c
          | Error e -> die "bad --link spec: %s" e)
        link_spec
    in
    Option.iter
      (fun c -> Printf.printf "link model: %s (per level, root-down)\n" (Link.to_spec c))
      link;
    let res = Strategy.run ~exec w in
    let out =
      Sim.run ~scale ?telemetry:sim_tel ?link w res.Strategy.placement
    in
    Printf.printf "packets: %d, edge transmissions: %d\n" out.Sim.packets
      out.Sim.transmissions;
    Printf.printf "makespan: %d rounds (lower bound %.1f)\n" out.Sim.makespan
      (Sim.lower_bound w res.Strategy.placement out);
    Printf.printf "completion: %g virtual time\n" out.Sim.completion;
    print_health "sim" sim_tel sim_mon;
    (* The distributed protocol must reproduce the centralized strategy:
       identical placements ideally, congestion-equal at minimum. A
       divergence is a bug in one of the two implementations, so it
       fails the command rather than being quietly dropped. *)
    let check_against_centralized ~what placement =
      if placement = res.Strategy.placement then
        Printf.printf "%s: identical to centralized strategy\n" what
      else
        let cd = (Placement.evaluate ~exec w placement).Placement.value in
        let cc = (Placement.evaluate ~exec w res.Strategy.placement).Placement.value in
        if cd = cc then
          Printf.printf
            "%s: differs structurally but is congestion-equal (%.3f)\n" what cd
        else
          die "%s diverges from centralized strategy: congestion %.3f vs %.3f"
            what cd cc
    in
    let () =
      match faults_spec with
      | None ->
        let placement, stats = Dist.strategy_rounds w in
      check_against_centralized ~what:"distributed placement" placement;
      Printf.printf
        "distributed computation of the placement: %d rounds, %d messages, max node work %d\n"
        stats.Dist.rounds stats.Dist.messages stats.Dist.max_node_work
    | Some spec ->
      let plan =
        match Faults.of_spec ~seed spec with
        | Ok p -> p
        | Error e -> die "bad --faults spec: %s" e
      in
      Printf.printf "fault plan: %s (seed %d)\n" (Faults.to_spec plan)
        (Faults.seed plan);
      let summarize_log log =
        let count p = List.length (List.filter p log) in
        Printf.printf
          "fault log: %d events (%d dropped, %d crash/restart, %d cut/restore)\n"
          (List.length log)
          (count (fun e ->
               match e.Faults.kind with Faults.Dropped _ -> true | _ -> false))
          (count (fun e ->
               match e.Faults.kind with
               | Faults.Crashed _ | Faults.Restarted _ -> true
               | _ -> false))
          (count (fun e ->
               match e.Faults.kind with
               | Faults.Cut _ | Faults.Restored _ -> true
               | _ -> false))
      in
      let print_nibble (ns : Dist_nibble.robust_stats) =
        Printf.printf
          "hardened nibble: %d rounds, %d messages, %d retransmissions, %d \
           duplicates, %d pure acks\n"
          ns.Dist_nibble.runtime.Runtime.rounds
          ns.Dist_nibble.runtime.Runtime.messages
          ns.Dist_nibble.retransmissions ns.Dist_nibble.duplicates
          ns.Dist_nibble.pure_acks
      in
      (match
         Dist.run_with_faults ~faults:plan ?telemetry:dist_tel ?link w
       with
      | Dist.Recovered { placement; nibble; log; _ } ->
        summarize_log log;
        print_nibble nibble;
        print_health "dist" dist_tel dist_mon;
        check_against_centralized ~what:"recovered distributed placement"
          placement
      | Dist.Degraded { reason; nibble; log; _ } ->
        summarize_log log;
        print_nibble nibble;
        print_health "dist" dist_tel dist_mon;
        die "fault recovery degraded: %s (%d node/object decisions open)"
          (match reason with
          | `Round_limit -> "round limit reached"
          | `Undecided -> "quiescent with undecided nodes"
          | `Diverged -> "recovered placement diverges from sequential nibble")
          nibble.Dist_nibble.undecided)
    in
    match telemetry_path with
    | None -> ()
    | Some path -> (
      match open_out path with
      | exception Sys_error m -> die "cannot open telemetry file: %s" m
      | oc ->
        let sink = Sink.jsonl oc in
        let dump prefix tel =
          Option.iter (fun t -> Telemetry.emit t ~prefix sink.Sink.emit) tel
        in
        (* Alerts follow their series under the same prefix: the
           monitors are created with it, so their alert events already
           carry fully-qualified series names. *)
        let dump_alerts mon =
          Option.iter (fun m -> Monitor.emit m sink.Sink.emit) mon
        in
        dump "sim" sim_tel;
        dump_alerts sim_mon;
        dump "dist" dist_tel;
        dump_alerts dist_mon;
        sink.Sink.flush ();
        close_out oc;
        let rounds tel =
          match tel with Some t -> Telemetry.rounds_recorded t | None -> 0
        in
        Printf.printf "telemetry: %d sim rounds%s -> %s\n" (rounds sim_tel)
          (if rounds dist_tel > 0 then
             Printf.sprintf " + %d dist rounds" (rounds dist_tel)
           else "")
          path)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Packet-simulate a workload under the strategy's placement.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ workload_kind $ objects $ scale $ faults_spec
          $ link_spec $ telemetry_file $ run_opts_term)

(* -- serve -------------------------------------------------------------- *)

let serve_cmd =
  let drift_kind =
    Arg.(
      value
      & opt
          (enum
             [ ("steady", Drift.Steady); ("diurnal", Drift.Diurnal);
               ("flash_crowd", Drift.Flash_crowd);
               ("hotspot_migration", Drift.Hotspot_migration) ])
          Drift.Hotspot_migration
      & info [ "drift" ]
          ~doc:
            "Drift generator: steady|diurnal|flash_crowd|hotspot_migration. \
             Ignored with --replay.")
  in
  let epochs_flag =
    Arg.(value & opt int Serve.default.Serve.epochs
         & info [ "epochs" ] ~doc:"Epochs to serve (ignored with --replay).")
  in
  let slots_flag =
    Arg.(value & opt int Serve.default.Serve.slots_per_epoch
         & info [ "slots" ] ~doc:"Slots per epoch.")
  in
  let top_k_flag =
    Arg.(value & opt int Serve.default.Serve.top_k
         & info [ "top-k" ]
             ~doc:"Hot objects eligible per re-optimization.")
  in
  let budget_flag =
    Arg.(value & opt int Serve.default.Serve.budget_bytes
         & info [ "budget" ] ~docv:"BYTES"
             ~doc:"Hard cap on migration bytes per epoch.")
  in
  let hysteresis_flag =
    Arg.(value & opt float Serve.default.Serve.hysteresis
         & info [ "hysteresis" ]
             ~doc:
               "Commit a re-optimization only if its migration bytes stay \
                under this fraction of the message bytes the congestion \
                drop saves over the coming epoch.")
  in
  let rate_flag =
    Arg.(value & opt int 8
         & info [ "rate" ] ~doc:"Base per-(leaf,object) request rate.")
  in
  let serve_seed =
    Arg.(value & opt int Serve.default.Serve.seed
         & info [ "serve-seed" ]
             ~doc:
               "Seeds the drift generator, the per-epoch climb PRNG and \
                the slot jitter (separate from the topology --seed; pass \
                the same value when replaying a recording).")
  in
  let no_oracle =
    Arg.(value & flag
         & info [ "no-oracle" ]
             ~doc:
               "Skip the fresh per-epoch re-place the oracle column \
                reports (faster; the serving loop itself never uses it).")
  in
  let record_file =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"FILE"
             ~doc:
               "Save the generated per-epoch request tables to $(docv) \
                for a later --replay.")
  in
  let replay_file =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:
               "Serve the request tables recorded in $(docv) instead of a \
                generator; the epoch count comes from the file, which \
                must have been recorded over the same topology shape.")
  in
  let telemetry_file =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE"
             ~doc:
               "Write the serving telemetry (per-slot traffic, \
                reconfiguration counters) and the monitor's alerts to \
                $(docv) as JSONL series/alert events under prefix \
                $(b,serve) — feed it to $(b,hbn_cli report). Bit-identical \
                across reruns and --jobs values.")
  in
  let run seed kind leaves arity height spine buses bandwidth objects drift
      epochs slots top_k budget hysteresis rate sseed no_oracle record replay
      telemetry_path opts =
    with_run_opts opts @@ fun exec ->
    if epochs < 1 then die "--epochs must be >= 1 (got %d)" epochs;
    if slots < 1 then die "--slots must be >= 1 (got %d)" slots;
    if top_k < 1 then die "--top-k must be >= 1 (got %d)" top_k;
    if budget < 0 then die "--budget must be >= 0 (got %d)" budget;
    if hysteresis < 0.0 then die "--hysteresis must be >= 0 (got %g)" hysteresis;
    if rate < 1 then die "--rate must be >= 1 (got %d)" rate;
    if objects < 1 then die "--objects must be >= 1 (got %d)" objects;
    let prng = Prng.create seed in
    let tree =
      build_topology kind ~prng ~leaves ~arity ~height ~spine ~buses ~bandwidth
    in
    let cfg =
      { Serve.default with Serve.slots_per_epoch = slots; epochs; top_k;
        budget_bytes = budget; hysteresis; seed = sseed;
        oracle = not no_oracle }
    in
    (* Mode banners go to stderr: stdout carries only the epoch table and
       totals, which a generator run and a replay of its recording must
       reproduce byte for byte (make serve-smoke diffs them). *)
    let source, cfg =
      match replay with
      | Some path -> (
        match Serve.load_tables ~tree path with
        | Error m -> die "cannot replay %s: %s" path m
        | Ok ts ->
          Printf.eprintf "hbn_cli: replaying %d epoch table(s) from %s\n"
            (Array.length ts) path;
          (Serve.Tables ts, { cfg with Serve.epochs = Array.length ts }))
      | None ->
        let d = Drift.create drift ~seed:sseed ~tree ~objects ~rate in
        (match record with
        | None -> ()
        | Some path -> (
          let ts = Serve.tables d ~epochs:cfg.Serve.epochs in
          match Serve.save_tables path ts with
          | Ok () ->
            Printf.eprintf "hbn_cli: recorded %d epoch table(s) to %s\n"
              cfg.Serve.epochs path
          | Error m -> die "cannot record tables to %s: %s" path m));
        (Serve.Generator d, cfg)
    in
    let out = Serve.run ~exec cfg source in
    let tbl =
      Table.create
        [ "epoch"; "requests"; "serve"; "stale"; "oracle"; "bytes";
          "repl/migr/drop"; "alerts" ]
    in
    List.iter
      (fun s ->
        Table.add_row tbl
          [
            string_of_int s.Serve.s_epoch;
            string_of_int s.Serve.s_requests;
            Table.fmt_float s.Serve.s_congestion;
            Table.fmt_float s.Serve.s_stale;
            (if Float.is_nan s.Serve.s_oracle then "-"
             else Table.fmt_float s.Serve.s_oracle);
            string_of_int s.Serve.s_bytes_migrated;
            (if s.Serve.s_reoptimized then
               Printf.sprintf "%d/%d/%d" s.Serve.s_replications
                 s.Serve.s_migrations s.Serve.s_contractions
             else "-");
            string_of_int s.Serve.s_alerts;
          ])
      out.Serve.epochs;
    Table.print tbl;
    Printf.printf "served %d requests over %d epochs (%d slots each)\n"
      out.Serve.total_requests cfg.Serve.epochs cfg.Serve.slots_per_epoch;
    Printf.printf
      "re-optimized %d epoch(s), migrated %d bytes (budget %d/epoch, \
       hysteresis %g)\n"
      out.Serve.reoptimized_epochs out.Serve.total_bytes_migrated
      cfg.Serve.budget_bytes cfg.Serve.hysteresis;
    Printf.printf "health (serve): %s (%d alert%s)\n"
      (Monitor.verdict_name out.Serve.verdict)
      (List.length out.Serve.alerts)
      (if List.length out.Serve.alerts = 1 then "" else "s");
    match telemetry_path with
    | None -> ()
    | Some path -> (
      match open_out path with
      | exception Sys_error m -> die "cannot open telemetry file: %s" m
      | oc ->
        let sink = Sink.jsonl oc in
        Telemetry.emit out.Serve.telemetry ~prefix:"serve" sink.Sink.emit;
        Monitor.emit out.Serve.monitor sink.Sink.emit;
        sink.Sink.flush ();
        close_out oc;
        Printf.eprintf "hbn_cli: telemetry: %d serve rounds -> %s\n"
          (Telemetry.rounds_recorded out.Serve.telemetry)
          path)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve drifting request traffic epoch by epoch, re-optimizing \
          only the hot objects when the drift monitor raises an alert — \
          gated by a per-epoch migration byte budget and hysteresis.")
    Term.(const run $ seed $ kind $ leaves $ arity $ height $ spine $ buses
          $ bandwidth $ objects $ drift_kind $ epochs_flag $ slots_flag
          $ top_k_flag $ budget_flag $ hysteresis_flag $ rate_flag
          $ serve_seed $ no_oracle $ record_file $ replay_file
          $ telemetry_file $ run_opts_term)

(* -- report ------------------------------------------------------------- *)

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "JSONL trace to analyze — written by $(b,--trace) or \
             $(b,--telemetry) on any pipeline subcommand.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("chrome", `Chrome) ])
          `Table
      & info [ "format" ]
          ~doc:
            "Output format: $(b,table) prints a human-readable report \
             (phases, critical path, counters, series, hottest edges), \
             $(b,json) a hbn.report/v1 document, $(b,chrome) Chrome \
             trace-event JSON — load it in Perfetto (ui.perfetto.dev) or \
             chrome://tracing to browse the trace as a flame chart.")
  in
  let top =
    Arg.(
      value
      & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Rows in the hottest-edge table (default 5).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"BASELINE"
          ~doc:
            "Compare $(docv) (another JSONL trace) against TRACE instead \
             of reporting TRACE alone: per-series total/peak deltas and \
             P-square quantile shifts, plus drift alerts recomputed on \
             both sides and classified new/resolved — any committed \
             trace becomes a regression baseline. Honors $(b,--format) \
             table and json (chrome has no diff rendering). Diffing a \
             trace against itself reports zero deltas.")
  in
  let run file format top baseline =
    if top < 1 then die "--top must be >= 1 (got %d)" top;
    let load path =
      match Report.load ~path with Error m -> die "%s" m | Ok r -> r
    in
    match baseline with
    | Some base_path -> (
      let base = load base_path and cur = load file in
      let d = Report.diff ~base ~cur in
      match format with
      | `Table -> print_string (Report.diff_to_table d)
      | `Json -> print_endline (Report.diff_to_json d)
      | `Chrome -> die "--diff has no chrome rendering (use table or json)")
    | None -> (
      let r = load file in
      match format with
      | `Table -> print_string (Report.to_table ~top r)
      | `Json -> print_endline (Report.to_json ~top r)
      | `Chrome -> print_endline (Report.to_chrome r))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze a recorded JSONL trace offline: per-phase self/total \
          time, the critical path, counter and telemetry-series rollups, \
          drift alerts, hottest edges over time; with $(b,--diff), \
          compare two traces series by series.")
    Term.(const run $ file $ format $ top $ baseline)

let () =
  let doc = "data management in hierarchical bus networks (SPAA 2000 reproduction)" in
  let info = Cmd.info "hbn_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topology_cmd; workload_cmd; place_cmd; compare_cmd; explain_cmd;
            gadget_cmd; simulate_cmd; dynamic_cmd; serve_cmd; report_cmd;
          ]))
