(* Reference oracle for the packet simulator: [Sim.run] as it was when
   every tick scanned the whole ready queue, under any of three service
   orders. The queue is one buffer of (hop, edge) pairs; each tick scans
   it once from where the policy says ([Fifo] front to back, [Reversed]
   back to front, [Round_robin] front to back from [round mod length],
   wrapping), grants what the edge and bus budgets allow, and keeps the
   rest in scan order, followed by the newly ready hops in index order.
   The tests check that [Sim.run] returns the same outcome, telemetry
   series and trace gauges as the [Fifo] scan. [Round_robin] and
   [Reversed] run only here: experiment E16 and the policy tests compare
   them with [Fifo]. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Heap = Hbn_util.Heap
module Link = Hbn_event.Link
module Sim = Hbn_sim.Sim

open Sim

(* Every order is work-conserving: it only reorders the hops a tick
   could serve. *)
type policy =
  | Fifo  (** serve ready hops oldest-first, as [Sim.run] does *)
  | Round_robin  (** rotate the service order every round *)
  | Reversed  (** youngest-first — the most unfair work-conserving order *)

let scale_up amount scale = if amount = 0 then 0 else ((amount - 1) / scale) + 1

(* A growable int buffer: [data.(0 .. len - 1)] is live. *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let reserve b k =
    if b.len + k > Array.length b.data then begin
      let d = Array.make (max (b.len + k) (2 * Array.length b.data)) 0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end

  let push b x =
    reserve b 1;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let push2 b x y =
    reserve b 2;
    b.data.(b.len) <- x;
    b.data.(b.len + 1) <- y;
    b.len <- b.len + 2
end

let run ?(scale = 1) ?(policy = Fifo) ?telemetry ?link w placement =
  if scale < 1 then invalid_arg "Sim.run: scale must be >= 1";
  let sp_run = Trace.span "sim.run" in
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  (* One edge traversal of one packet per hop, as two growable parallel
     buffers: [hop_edge.(i)] is the edge, [hop_dep.(i)] the index of the
     hop that must complete first, or -1. *)
  let hop_edge = Buf.create () and hop_dep = Buf.create () in
  let packets = ref 0 in
  let push edge dep =
    Buf.push hop_edge edge;
    Buf.push hop_dep dep;
    hop_edge.Buf.len - 1
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
  Array.iter
    (fun (op : Placement_ref.obj) ->
      List.iter
        (fun (a : Placement_ref.assignment) ->
          let reads = scale_up a.reads scale in
          let writes = scale_up a.writes scale in
          for _ = 1 to reads do
            incr packets;
            ignore (add_unicast ~from:a.leaf ~target:a.server)
          done;
          for _ = 1 to writes do
            incr packets;
            let arrival = add_unicast ~from:a.leaf ~target:a.server in
            add_multicast ~source:a.server ~nodes:op.copies ~dep:arrival
          done)
        op.assigns)
    (Placement_ref.to_lists placement);
  let n_hops = hop_edge.Buf.len in
  let hop_edge = hop_edge.Buf.data and hop_dep = hop_dep.Buf.data in
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
  (* Greedy scheduling over virtual time. The allocator wakes at whole
     ticks and serves the ready hops under per-tick capacity; a granted
     hop occupies its link for [Link.latency] virtual time and its
     dependents become eligible at the first tick at or after arrival.
     Without a link model (or under
     [Link.sync]) every latency is exactly 1 and every per-tick budget
     equals the static caps, so ticks are the synchronous rounds of the
     original engine, bit for bit. *)
  let attached =
    if Tree.num_edges tree = 0 then None
    else Option.map (fun c -> Link.attach c tree) link
  in
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
  (* The endpoints of each edge that are buses, or -1 for a processor. *)
  let bus_end pick =
    Array.init (Tree.num_edges tree) (fun e ->
        let v = pick (Tree.edge_endpoints tree e) in
        if Tree.is_leaf tree v then -1 else v)
  in
  let bus_u = bus_end fst and bus_v = bus_end snd in
  let credit = Array.make m 0. in
  let bus_left = Array.make (Tree.n tree) 0 in
  (* The hops gated on hop [i] are [children.(child_start.(i)) ..
     children.(child_start.(i + 1) - 1)], in index order. *)
  let child_start = Array.make (n_hops + 1) 0 in
  for i = 0 to n_hops - 1 do
    let d = hop_dep.(i) in
    if d >= 0 then child_start.(d) <- child_start.(d) + 1
  done;
  for i = 1 to n_hops do
    child_start.(i) <- child_start.(i) + child_start.(i - 1)
  done;
  let children = Array.make child_start.(n_hops) 0 in
  for i = n_hops - 1 downto 0 do
    let d = hop_dep.(i) in
    if d >= 0 then begin
      child_start.(d) <- child_start.(d) - 1;
      children.(child_start.(d)) <- i
    end
  done;
  (* The ready queue: (hop, edge) pairs in service order. Each tick scans
     [!ready] and writes the hops it could not grant to [!spare], then the
     two swap. Hops whose dependency is already done enter in index order
     (FIFO by injection). *)
  let ready = ref (Buf.create ()) and spare = ref (Buf.create ()) in
  for i = 0 to n_hops - 1 do
    if hop_dep.(i) < 0 then Buf.push2 !ready i hop_edge.(i)
  done;
  (* Arrivals. A hop granted at tick [now] arrives at [now + latency] and
     its children become ready at the first whole time after [now] and
     at or after the arrival: [max (ceil arrival) (next_tick now)]. Each
     granted hop with children goes into the bucket of that tick, and a
     non-empty ready queue books [next_tick now]. [pending] maps the time
     of every booked tick still to run to its bucket, [ticks] orders
     those times, and drained buckets go to [free]. *)
  let pending = Hashtbl.create 16 and ticks = Heap.create () in
  let free = Stack.create () and newly = Buf.create () in
  let remaining = ref n_hops in
  let rounds = ref 0 in
  let completion = ref 0. in
  let last_tick = ref 0. in
  (* Past 2^53 every float is whole and [now +. 1.] may round to [now]. *)
  let next_tick now =
    let t = now +. 1. in
    if t = now then Float.succ now else t
  in
  let bucket_at time =
    match Hashtbl.find_opt pending time with
    | Some b -> b
    | None ->
      let b = if Stack.is_empty free then Buf.create () else Stack.pop free in
      Hashtbl.add pending time b;
      Heap.add ticks ~key:time b;
      b
  in
  let tick now arrived =
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
    Array.blit bus_cap 0 bus_left 0 (Array.length bus_cap);
    Hashtbl.remove pending now;
    for k = 0 to arrived.Buf.len - 1 do
      let p = arrived.Buf.data.(k) in
      for c = child_start.(p) to child_start.(p + 1) - 1 do
        Buf.push newly children.(c)
      done
    done;
    arrived.Buf.len <- 0;
    Stack.push arrived free;
    let sorted = Array.sub newly.Buf.data 0 newly.Buf.len in
    newly.Buf.len <- 0;
    Array.sort Int.compare sorted;
    let q = !ready and next = !spare in
    Array.iter (fun c -> Buf.push2 q c hop_edge.(c)) sorted;
    (* The scheduling policy only picks where the scan of the ready hops
       starts and which way it goes; any order is work-conserving,
       experiment E16 measures how little it matters. Ungranted hops keep
       their scan order for the next tick. *)
    let len = q.Buf.len / 2 and src = q.Buf.data in
    Buf.reserve next q.Buf.len;
    let dst = next.Buf.data and kept = ref 0 in
    let start, step =
      match policy with
      | Fifo -> (0, 1)
      | Reversed -> (len - 1, -1)
      | Round_robin -> ((if len = 0 then 0 else !rounds mod len), 1)
    in
    let enabled = ref 0 in
    let pos = ref start in
    for _ = 1 to len do
      let i = src.(2 * !pos) and edge = src.((2 * !pos) + 1) in
      let bu = bus_u.(edge) and bv = bus_v.(edge) in
      if
        credit.(edge) >= 1.
        && (bu < 0 || bus_left.(bu) > 0)
        && (bv < 0 || bus_left.(bv) > 0)
      then begin
        (match telemetry with
        | None -> ()
        | Some tel -> Telemetry.send tel ~edge ~bytes:1);
        credit.(edge) <- credit.(edge) -. 1.;
        if bu >= 0 then bus_left.(bu) <- bus_left.(bu) - 1;
        if bv >= 0 then bus_left.(bv) <- bus_left.(bv) - 1;
        decr remaining;
        let arrival = now +. hop_latency.(edge) in
        if arrival > !completion then completion := arrival;
        let fanout = child_start.(i + 1) - child_start.(i) in
        if fanout > 0 then begin
          enabled := !enabled + fanout;
          Buf.push (bucket_at (Float.max (Float.ceil arrival) (next_tick now))) i
        end
      end
      else begin
        dst.(!kept) <- i;
        dst.(!kept + 1) <- edge;
        kept := !kept + 2
      end;
      pos := !pos + step;
      if !pos = len then pos := 0
    done;
    q.Buf.len <- 0;
    next.Buf.len <- !kept;
    ready := next;
    spare := q;
    if next.Buf.len > 0 then ignore (bucket_at (next_tick now));
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:(Tree.n tree));
    if Trace.enabled () then begin
      Trace.gauge "sim.queue_depth"
        (float_of_int ((next.Buf.len / 2) + !enabled));
      Trace.gauge "sim.round_transmissions"
        (float_of_int (remaining_before - !remaining))
    end
  in
  if n_hops > 0 then ignore (bucket_at 1.);
  let rec drain () =
    match Heap.pop_min ticks with
    | None -> ()
    | Some (now, arrived) ->
      tick now arrived;
      drain ()
  in
  drain ();
  assert (!remaining = 0);
  let outcome =
    {
      makespan = !rounds;
      completion = !completion;
      packets = !packets;
      transmissions = n_hops;
      edge_traffic;
      max_dilation = !max_dilation;
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
