module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Engine = Hbn_event.Engine
module Link = Hbn_event.Link

type outcome = {
  makespan : int;
  completion : float;
  packets : int;
  transmissions : int;
  edge_traffic : int array;
  max_dilation : int;
  health : Monitor.verdict option;
}

let scale_up amount scale = if amount = 0 then 0 else ((amount - 1) / scale) + 1

type policy = Fifo | Round_robin | Reversed

let run ?(scale = 1) ?(policy = Fifo) ?telemetry ?monitor ?link w placement =
  if scale < 1 then invalid_arg "Sim.run: scale must be >= 1";
  let sp_run = Trace.span "sim.run" in
  let tree = Workload.tree w in
  (* As in Runtime.run_core: a monitor with no caller-owned collector
     records into a private one just for the end-of-run ingest. *)
  let telemetry =
    match (telemetry, monitor) with
    | None, Some _ ->
      Some (Telemetry.create ~num_edges:(Tree.num_edges tree) ())
    | _ -> telemetry
  in
  let m = max 1 (Tree.num_edges tree) in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  (* One edge traversal of one packet per hop, as two growable parallel
     arrays: [hop_edge.(i)] is the edge, [hop_dep.(i)] the index of the
     hop that must complete first, or -1. *)
  let hop_edge = ref (Array.make 64 0) and hop_dep = ref (Array.make 64 0) in
  let count = ref 0 in
  let packets = ref 0 in
  let push edge dep =
    if !count = Array.length !hop_edge then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      hop_edge := grow !hop_edge;
      hop_dep := grow !hop_dep
    end;
    !hop_edge.(!count) <- edge;
    !hop_dep.(!count) <- dep;
    incr count;
    !count - 1
  in
  let add_unicast ~from ~target =
    let last = ref (-1) in
    Flat.iter_path fl scratch from target (fun edge -> last := push edge !last);
    !last
  in
  (* Multicast from [source] over the Steiner tree of [nodes], gated on
     [dep]: BFS orientation away from the source. Each dequeued node sends
     over its Steiner child edges in reverse [children] order, then over
     its parent edge; the arrival edge is skipped because its far end is
     already stamped. The Steiner edges carry the scan's stamp in
     [estamp], the visited nodes a fresh one in [nstamp], and [acc] holds
     the index of the hop that reached each queued node. *)
  let add_multicast ~source ~nodes ~dep =
    let open Flat.Scratch in
    let r = fl.Flat.r and sc = scratch in
    let spanned = ref false in
    Flat.iter_steiner fl sc
      ~nodes:(fun mark -> List.iter mark nodes)
      (fun e ->
        sc.estamp.(e) <- sc.stamp;
        spanned := true);
    if !spanned then begin
      let in_tree = sc.stamp in
      let seen = in_tree + 1 in
      sc.stamp <- seen;
      let head = ref 0 and tail = ref 1 in
      sc.queue.(0) <- source;
      sc.acc.(source) <- dep;
      sc.nstamp.(source) <- seen;
      let send node e next =
        if sc.estamp.(e) = in_tree && sc.nstamp.(next) <> seen then begin
          sc.nstamp.(next) <- seen;
          sc.acc.(next) <- push e sc.acc.(node);
          sc.queue.(!tail) <- next;
          incr tail
        end
      in
      while !head < !tail do
        let node = sc.queue.(!head) in
        incr head;
        let cs = r.Tree.children.(node) in
        for i = Array.length cs - 1 downto 0 do
          send node r.Tree.parent_edge.(cs.(i)) cs.(i)
        done;
        if node <> r.Tree.root then
          send node r.Tree.parent_edge.(node) r.Tree.parent.(node)
      done
    end
  in
  Array.iteri
    (fun _obj (op : Placement.obj_placement) ->
      List.iter
        (fun (a : Placement.assignment) ->
          let reads = scale_up a.Placement.reads scale in
          let writes = scale_up a.Placement.writes scale in
          for _ = 1 to reads do
            incr packets;
            ignore (add_unicast ~from:a.Placement.leaf ~target:a.Placement.server)
          done;
          for _ = 1 to writes do
            incr packets;
            let arrival =
              add_unicast ~from:a.Placement.leaf ~target:a.Placement.server
            in
            add_multicast ~source:a.Placement.server ~nodes:op.Placement.copies
              ~dep:arrival
          done)
        op.Placement.assigns)
    placement;
  let n_hops = !count in
  let hop_edge = !hop_edge and hop_dep = !hop_dep in
  let edge_traffic = Array.make m 0 in
  for i = 0 to n_hops - 1 do
    edge_traffic.(hop_edge.(i)) <- edge_traffic.(hop_edge.(i)) + 1
  done;
  (* Dependency depth = packet dilation. *)
  let depth = Array.make (max 1 n_hops) 0 in
  let max_dilation = ref 0 in
  for i = 0 to n_hops - 1 do
    depth.(i) <- (if hop_dep.(i) >= 0 then depth.(hop_dep.(i)) + 1 else 1);
    if depth.(i) > !max_dilation then max_dilation := depth.(i)
  done;
  (* Event-driven greedy scheduling over virtual time. The allocator
     wakes at integer ticks of the {!Hbn_event.Engine} and serves the
     ready hops under per-tick capacity; a granted hop occupies its link
     for [Link.latency] virtual time and its dependents become eligible
     at the first tick after arrival. Without a link model (or under
     [Link.sync]) every latency is exactly 1 and every per-tick budget
     equals the static caps, so ticks are the synchronous rounds of the
     original engine, bit for bit. *)
  let attached = Option.map (fun c -> Link.attach c tree) link in
  let edge_cap = Array.init m (fun e ->
      if Tree.num_edges tree = 0 then 1 else Tree.edge_bandwidth tree e)
  in
  (* Per-edge service rate in packets per tick: the static SCI width
     [b(e)] in the synchronous regime (bandwidth "inf"), overridden by
     the level's finite bandwidth otherwise. Credits accumulate across
     ticks up to one tick's burst — with an integral rate that reduces
     exactly to the per-round cap of the synchronous engine. *)
  let rate = Array.init m (fun e ->
      match attached with
      | None -> float_of_int edge_cap.(e)
      | Some l ->
        let b = Link.bandwidth (Link.config l) ~level:(Link.edge_level l e) in
        if b = Float.infinity then float_of_int edge_cap.(e) else b)
  in
  let burst = Array.map (fun r -> Float.max r 1.) rate in
  let hop_latency = Array.init m (fun e ->
      match attached with
      | None -> 1.
      | Some l -> Link.latency l ~edge:e ~bytes:1)
  in
  let bus_cap = Array.make (Tree.n tree) 0 in
  List.iter (fun b -> bus_cap.(b) <- 2 * Tree.bus_bandwidth tree b) (Tree.buses tree);
  let is_bus = Array.init (Tree.n tree) (fun v -> not (Tree.is_leaf tree v)) in
  let credit = Array.make m 0. in
  let bus_left = Array.make (Tree.n tree) 0 in
  let frontier = ref [] in
  (* Hops whose dependency is already done enter the frontier in index
     order (FIFO by injection). *)
  let blocked_children = Array.make (max 1 n_hops) [] in
  for i = n_hops - 1 downto 0 do
    let d = hop_dep.(i) in
    if d < 0 then frontier := i :: !frontier
    else blocked_children.(d) <- i :: blocked_children.(d)
  done;
  let remaining = ref n_hops in
  let rounds = ref 0 in
  let completion = ref 0. in
  let engine = Engine.create () in
  (* Arrivals (rank 0) land before the tick (rank 1) they enable, so a
     tick always sees every hop whose dependency cleared by its time. *)
  let newly = ref [] in
  let tick_scheduled = Hashtbl.create 64 in
  let last_tick = ref 0. in
  let rec ensure_tick time =
    if not (Hashtbl.mem tick_scheduled time) then begin
      Hashtbl.add tick_scheduled time ();
      Engine.at engine ~rank:1 ~time tick
    end
  and tick () =
    let now = Engine.now engine in
    incr rounds;
    (match telemetry with
    | None -> ()
    | Some tel ->
      Telemetry.begin_round ~vtime:now tel ~round:(int_of_float now));
    let remaining_before = !remaining in
    let dt = now -. !last_tick in
    last_tick := now;
    for e = 0 to m - 1 do
      credit.(e) <- Float.min (credit.(e) +. (rate.(e) *. dt)) burst.(e)
    done;
    Array.iteri (fun v c -> bus_left.(v) <- c) bus_cap;
    frontier := !frontier @ List.sort compare !newly;
    newly := [];
    let next = ref [] in
    let enabled = ref 0 in
    let scheduled =
      (* The scheduling policy permutes the service order of the ready
         hops; any order is work-conserving, experiment E16 measures how
         little it matters. *)
      match policy with
      | Fifo -> !frontier
      | Reversed -> List.rev !frontier
      | Round_robin ->
        let len = List.length !frontier in
        if len = 0 then []
        else begin
          let k = !rounds mod len in
          (* Rotate the frontier by k positions. *)
          let rec split i acc = function
            | rest when i = k -> rest @ List.rev acc
            | x :: rest -> split (i + 1) (x :: acc) rest
            | [] -> List.rev acc
          in
          split 0 [] !frontier
        end
    in
    List.iter
      (fun i ->
        let edge = hop_edge.(i) in
        let u, v = Tree.edge_endpoints tree edge in
        let bus_ok b = (not is_bus.(b)) || bus_left.(b) > 0 in
        if credit.(edge) >= 1. && bus_ok u && bus_ok v then begin
          (match telemetry with
          | None -> ()
          | Some tel -> Telemetry.send tel ~edge ~bytes:1);
          credit.(edge) <- credit.(edge) -. 1.;
          if is_bus.(u) then bus_left.(u) <- bus_left.(u) - 1;
          if is_bus.(v) then bus_left.(v) <- bus_left.(v) - 1;
          decr remaining;
          let arrival = now +. hop_latency.(edge) in
          if arrival > !completion then completion := arrival;
          (* Children become ready at the first tick after the hop has
             fully arrived (store-and-forward: next round under sync). *)
          (match blocked_children.(i) with
          | [] -> ()
          | children ->
            enabled := !enabled + List.length children;
            ensure_tick (Float.ceil arrival);
            Engine.at engine ~time:arrival (fun () ->
                List.iter (fun c -> newly := c :: !newly) children))
        end
        else next := i :: !next)
      scheduled;
    frontier := List.rev !next;
    if !frontier <> [] then ensure_tick (now +. 1.);
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:(Tree.n tree));
    if Trace.enabled () then begin
      Trace.gauge "sim.queue_depth"
        (float_of_int (List.length !frontier + !enabled));
      Trace.gauge "sim.round_transmissions"
        (float_of_int (remaining_before - !remaining))
    end
  in
  if n_hops > 0 then ensure_tick 1.;
  Engine.drain engine;
  assert (!remaining = 0);
  let health =
    Option.map
      (fun mon ->
        (match telemetry with
        | Some tel -> Monitor.ingest mon tel
        | None -> ());
        Monitor.health mon)
      monitor
  in
  let outcome =
    {
      makespan = !rounds;
      completion = !completion;
      packets = !packets;
      transmissions = n_hops;
      edge_traffic;
      max_dilation = !max_dilation;
      health;
    }
  in
  if Trace.enabled () then begin
    Trace.count ~by:outcome.packets "sim.packets";
    Trace.count ~by:outcome.transmissions "sim.transmissions";
    Trace.event "sim.outcome"
      ~attrs:
        [
          ("makespan", Sink.Int outcome.makespan);
          ("packets", Sink.Int outcome.packets);
          ("transmissions", Sink.Int outcome.transmissions);
          ("max_dilation", Sink.Int outcome.max_dilation);
          ("scale", Sink.Int scale);
        ];
    Trace.finish sp_run
      ~attrs:
        [
          ("makespan", Sink.Int outcome.makespan);
          ("packets", Sink.Int outcome.packets);
        ]
  end;
  outcome

let lower_bound w _placement outcome =
  let tree = Workload.tree w in
  let cong =
    (Placement.congestion_of_edge_loads tree outcome.edge_traffic)
      .Placement.value
  in
  Float.max cong (float_of_int outcome.max_dilation)
