(* Pinned fingerprints of the packet simulator over seeded random
   instances. Each line fixes one (instance, policy, link) run: makespan,
   completion, transmissions, dilation, and digests of the per-edge
   traffic, of the recorded telemetry series and of the per-tick trace
   gauges. The hop order (path replay, broadcast orientation) drives
   every scheduling decision, so a change of order anywhere shows up here
   on shapes the BENCH matrices never reach. The third link has
   fractional latencies (0.75 at the root level, 2.5 below), so hops
   granted at one tick arrive at different instants and several of them
   share one consuming tick. The fifo rows run [Sim.run]; the
   round_robin and reversed rows run the whole-queue scan in
   [Hbn_ref.Sim_ref], the only implementation of those orders. The
   committed table is fixtures/sim_fingerprints.txt. *)

module Tree = Hbn_tree.Tree
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Sim = Hbn_sim.Sim
module Sim_ref = Hbn_ref.Sim_ref
module Link = Hbn_event.Link
module Telemetry = Hbn_obs.Telemetry
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

let instances = 40

(* A simulator run under one service order: [Sim.run] for FIFO, the
   reference scan for the others. *)
let run_policy policy ?scale ?telemetry ?link w p =
  match (policy : Sim_ref.policy) with
  | Fifo -> Sim.run ?scale ?telemetry ?link w p
  | Round_robin | Reversed -> Sim_ref.run ?scale ~policy ?telemetry ?link w p

let policies =
  [
    ("fifo", Sim_ref.Fifo);
    ("round_robin", Sim_ref.Round_robin);
    ("reversed", Sim_ref.Reversed);
  ]

let links =
  ("sync", None)
  :: List.map
       (fun spec -> (spec, Some (Result.get_ok (Link.of_spec spec))))
       [ "1:4,1:1"; "0.25:2,0.5:0.5" ]

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let digest_ints a =
  digest (String.concat "," (Array.to_list (Array.map string_of_int a)))

let digest_points points =
  let b = Buffer.create 256 in
  List.iter
    (fun (p : Telemetry.point) ->
      Printf.bprintf b "%d %h %d %d %d %d %d %d %d %d %d %d %d %d|" p.round
        p.vtime p.rounds p.sent p.delivered p.dropped p.bytes p.retransmits
        p.dup_suppressed p.replications p.migrations p.contractions
        p.live_nodes p.other_edges;
      List.iter (fun (e, c) -> Printf.bprintf b "%d:%d " e c) p.edges;
      Buffer.add_char b '\n')
    points;
  digest (Buffer.contents b)

(* Runs [f] under an in-memory trace sink and digests the per-tick
   [sim.queue_depth] and [sim.round_transmissions] gauges in emission
   order. *)
let with_gauge_digest f =
  let sink, read = Sink.memory () in
  let result = Trace.with_sink sink f in
  let b = Buffer.create 256 in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Gauge { value }
        when ev.Sink.name = "sim.queue_depth"
             || ev.Sink.name = "sim.round_transmissions" ->
        Printf.bprintf b "%s %h|" ev.Sink.name value
      | _ -> ())
    (read ());
  (result, digest (Buffer.contents b))

(* Copy sets of 1-5 random nodes, buses included, so write broadcasts
   start from inner nodes and span arbitrary Steiner trees. *)
let random_copies prng w =
  let n = Tree.n (Workload.tree w) in
  Array.init (Workload.num_objects w) (fun _ ->
      List.init (Prng.int_in prng 1 5) (fun _ -> Prng.int prng n))

let table () =
  List.concat_map
    (fun seed ->
      let _, w = Helpers.instance seed in
      let tree = Workload.tree w in
      let prng = Prng.create (seed + 1009) in
      let p = Placement.nearest w ~copies:(random_copies prng w) in
      List.concat_map
        (fun (pname, policy) ->
          List.map
            (fun (lname, link) ->
              let tel = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
              let o, gauges =
                with_gauge_digest (fun () ->
                    run_policy policy ~telemetry:tel ?link w p)
              in
              Printf.sprintf
                "%d %s %s makespan=%d completion=%h transmissions=%d \
                 max_dilation=%d traffic=%s telemetry=%s gauges=%s"
                seed pname lname o.Sim.makespan o.Sim.completion
                o.Sim.transmissions o.Sim.max_dilation
                (digest_ints o.Sim.edge_traffic)
                (digest_points (Telemetry.points tel))
                gauges)
            links)
        policies)
    (List.init instances Fun.id)
