module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Heap = Hbn_util.Heap
module Link = Hbn_event.Link

type outcome = {
  makespan : int;
  completion : float;
  packets : int;
  transmissions : int;
  edge_traffic : int array;
  max_dilation : int;
}

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
end

(* A binary min-heap of (int key, edge) pairs in two fixed arrays, one
   slot per edge; keys are distinct within a tick. *)
module Heads = struct
  type t = { keys : int array; edges : int array; mutable size : int }

  let create capacity =
    { keys = Array.make capacity 0; edges = Array.make capacity 0; size = 0 }

  let push h key e =
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && key < h.keys.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      h.keys.(!i) <- h.keys.(p);
      h.edges.(!i) <- h.edges.(p);
      i := p
    done;
    h.keys.(!i) <- key;
    h.edges.(!i) <- e

  (* Replaces the minimum by (key, e) and sifts it down. *)
  let replace_top h key e =
    let i = ref 0 and moving = ref true in
    while !moving do
      let c = (2 * !i) + 1 in
      if c >= h.size then moving := false
      else begin
        let c = if c + 1 < h.size && h.keys.(c + 1) < h.keys.(c) then c + 1 else c in
        if h.keys.(c) < key then begin
          h.keys.(!i) <- h.keys.(c);
          h.edges.(!i) <- h.edges.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.keys.(!i) <- key;
    h.edges.(!i) <- e

  let top h = h.edges.(0)

  let pop h =
    h.size <- h.size - 1;
    if h.size > 0 then replace_top h h.keys.(h.size) h.edges.(h.size)
end

let run ?(scale = 1) ?telemetry ?link w placement =
  if scale < 1 then invalid_arg "Sim.run: scale must be >= 1";
  let sp_run = Trace.span "sim.run" in
  let sp_build = Trace.span "sim.build" in
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
  let build_multicast ~source ~nodes ~dep =
    let open Flat.Scratch in
    let r = fl.Flat.r and sc = scratch in
    let spanned = ref false in
    Flat.iter_steiner fl sc
      ~nodes:(fun mark -> Array.iter mark nodes)
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
  (* Every write of one object through one server sends the same
     multicast, so only the first is built. Its hops are recorded as
     [hop_edge]/[hop_dep] indices [tmpl_start.(source) ..] of length
     [tmpl_len.(source)], valid while [tmpl_obj.(source)] is the object,
     and later writes copy them: a dependency inside that range moves
     with the copy, and one before it (the first write's arrival hop, or
     -1) becomes [dep]. *)
  let tmpl_obj = Array.make (Tree.n tree) (-1) in
  let tmpl_start = Array.make (Tree.n tree) 0 in
  let tmpl_len = Array.make (Tree.n tree) 0 in
  let add_multicast ~obj ~source ~nodes ~dep =
    if tmpl_obj.(source) = obj then begin
      let start = tmpl_start.(source) and len = tmpl_len.(source) in
      let base = hop_edge.Buf.len in
      Buf.reserve hop_edge len;
      Buf.reserve hop_dep len;
      let edges = hop_edge.Buf.data and deps = hop_dep.Buf.data in
      for j = 0 to len - 1 do
        let d = deps.(start + j) in
        edges.(base + j) <- edges.(start + j);
        deps.(base + j) <- (if d < start then dep else d - start + base)
      done;
      hop_edge.Buf.len <- base + len;
      hop_dep.Buf.len <- base + len
    end
    else begin
      let start = hop_edge.Buf.len in
      build_multicast ~source ~nodes ~dep;
      tmpl_obj.(source) <- obj;
      tmpl_start.(source) <- start;
      tmpl_len.(source) <- hop_edge.Buf.len - start
    end
  in
  Array.iteri
    (fun obj (op : Placement.obj_placement) ->
      for i = 0 to Array.length op.Placement.leaf - 1 do
        let leaf = op.Placement.leaf.(i) and server = op.Placement.server.(i) in
        let reads = scale_up op.Placement.reads.(i) scale in
        let writes = scale_up op.Placement.writes.(i) scale in
        for _ = 1 to reads do
          incr packets;
          ignore (add_unicast ~from:leaf ~target:server)
        done;
        for _ = 1 to writes do
          incr packets;
          let arrival = add_unicast ~from:leaf ~target:server in
          add_multicast ~obj ~source:server ~nodes:op.Placement.copies
            ~dep:arrival
        done
      done)
    placement;
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
  Trace.finish sp_build;
  let sp_schedule = Trace.span "sim.schedule" in
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
  (* Latency classes: [lat_class.(e)] numbers [hop_latency.(e)] among the
     [n_classes] distinct latencies (one per link level at most). The
     hops a tick grants over the edges of one class all become ready at
     the same tick. *)
  let lat_class = Array.make m 0 in
  let n_classes =
    let ids = Hashtbl.create 8 in
    Array.iteri
      (fun e lat ->
        lat_class.(e) <-
          (match Hashtbl.find_opt ids lat with
          | Some c -> c
          | None ->
            let c = Hashtbl.length ids in
            Hashtbl.add ids lat c;
            c))
      hop_latency;
    Hashtbl.length ids
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
  (* Per-tick budgets. Only the edges below their burst are refilled
     ([low], flagged in [is_low]): one at its burst stays there, since
     [min (burst + rate·dt) burst = burst]. Only the buses a tick drew
     on ([touched]) are reset at the next one. *)
  let credit = Array.make m 0. in
  let low = Array.init m Fun.id and n_low = ref m in
  let is_low = Array.make m true in
  let bus_left = Array.copy bus_cap in
  let touched = Array.make (Tree.n tree) 0 and n_touched = ref 0 in
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
  (* The waiting hops, per edge: the hops on edge [e] wait in entry
     order on a queue linked through [next] from [head.(e)] (-1 when
     empty) to [tail.(e)]. [key.(h)] is hop [h]'s entry sequence, the
     service order. [active] holds the edges with waiting hops, [slot]
     each one's index there. *)
  let hop_slots = max 1 n_hops in
  let head = Array.make m (-1) and tail = Array.make m 0 in
  let next = Array.make hop_slots 0 and key = Array.make hop_slots 0 in
  let active = Array.make m 0 and slot = Array.make m 0 in
  let n_active = ref 0 in
  let waiting = ref 0 and entered = ref 0 in
  let heads = Heads.create m in
  (* Arrivals. A hop granted at tick [now] arrives at [now + latency] and
     its children become ready at the first whole time after [now] and
     at or after the arrival: [max (ceil arrival) (next_tick now)]. Each
     granted hop with children goes into the bucket of that tick, and a
     tick that leaves hops waiting books [next_tick now]. [pending] maps
     the time of every booked tick still to run to its bucket, [ticks]
     orders those times, and drained buckets go to [free]. A tick looks
     a bucket up in [pending] once per latency class it grants on, not
     once per hop: [class_bucket.(c)] is class [c]'s bucket while
     [class_stamp.(c)] is the tick's round. [newly] collects the hops a
     tick releases, starting with the ungated ones at tick 1. *)
  let pending = Hashtbl.create 16 and ticks = Heap.create () in
  let free = Stack.create () and newly = Buf.create () in
  for i = 0 to n_hops - 1 do
    if hop_dep.(i) < 0 then Buf.push newly i
  done;
  let class_bucket = Array.make n_classes newly in
  let class_stamp = Array.make n_classes 0 in
  let remaining = ref n_hops in
  let rounds = ref 0 in
  (* One-cell float arrays, so the per-hop updates store unboxed. *)
  let completion = [| 0. |] in
  let last_tick = [| 0. |] in
  let bucket_at time =
    match Hashtbl.find_opt pending time with
    | Some b -> b
    | None ->
      let b = if Stack.is_empty free then Buf.create () else Stack.pop free in
      Hashtbl.add pending time b;
      Heap.add ticks ~key:time b;
      b
  in
  (* Takes one of bus [b]'s packet-hops for this tick (none for -1). *)
  let draw b =
    if b >= 0 then begin
      if bus_left.(b) = bus_cap.(b) then begin
        touched.(!n_touched) <- b;
        incr n_touched
      end;
      bus_left.(b) <- bus_left.(b) - 1
    end
  in
  let tick now arrived =
    incr rounds;
    (match telemetry with
    | None -> ()
    | Some tel ->
      Telemetry.begin_round ~vtime:now tel ~round:(int_of_float now));
    let remaining_before = !remaining in
    (* Past 2^53 every float is whole and [now +. 1.] may round to [now]. *)
    let next_tick =
      let t = now +. 1. in
      if t = now then Float.succ now else t
    in
    let dt = now -. last_tick.(0) in
    last_tick.(0) <- now;
    let kept = ref 0 in
    for i = 0 to !n_low - 1 do
      let e = low.(i) in
      let c = credit.(e) +. (rate.(e) *. dt) in
      credit.(e) <- (if c < burst.(e) then c else burst.(e));
      if credit.(e) < burst.(e) then begin
        low.(!kept) <- e;
        incr kept
      end
      else is_low.(e) <- false
    done;
    n_low := !kept;
    for i = 0 to !n_touched - 1 do
      let b = touched.(i) in
      bus_left.(b) <- bus_cap.(b)
    done;
    n_touched := 0;
    Hashtbl.remove pending now;
    for k = 0 to arrived.Buf.len - 1 do
      let p = arrived.Buf.data.(k) in
      for c = child_start.(p) to child_start.(p + 1) - 1 do
        Buf.push newly children.(c)
      done
    done;
    arrived.Buf.len <- 0;
    Stack.push arrived free;
    (* The released hops enter their edges' queues in index order. *)
    Heap.sort_prefix newly.Buf.data newly.Buf.len;
    for k = 0 to newly.Buf.len - 1 do
      let h = newly.Buf.data.(k) in
      let e = hop_edge.(h) in
      key.(h) <- !entered;
      incr entered;
      if head.(e) < 0 then begin
        head.(e) <- h;
        slot.(e) <- !n_active;
        active.(!n_active) <- e;
        incr n_active
      end
      else next.(tail.(e)) <- h;
      tail.(e) <- h
    done;
    waiting := !waiting + newly.Buf.len;
    newly.Buf.len <- 0;
    (* Every waiting edge joins the merge at its queue's head. The merge
       grants hops in entry order. A tick's budgets only fall, so the
       hops an edge is granted are a prefix of its queue, and a refused
       hop changes nothing: an edge leaves the merge at its first
       refusal. *)
    for i = 0 to !n_active - 1 do
      let e = active.(i) in
      Heads.push heads key.(head.(e)) e
    done;
    let enabled = ref 0 in
    while heads.Heads.size > 0 do
      let edge = Heads.top heads in
      let h = head.(edge) in
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
        if not is_low.(edge) then begin
          is_low.(edge) <- true;
          low.(!n_low) <- edge;
          incr n_low
        end;
        draw bu;
        draw bv;
        decr remaining;
        decr waiting;
        let arrival = now +. hop_latency.(edge) in
        if arrival > completion.(0) then completion.(0) <- arrival;
        let fanout = child_start.(h + 1) - child_start.(h) in
        if fanout > 0 then begin
          enabled := !enabled + fanout;
          let c = lat_class.(edge) in
          if class_stamp.(c) <> !rounds then begin
            let ready = Float.ceil arrival in
            class_bucket.(c) <-
              bucket_at (if ready > next_tick then ready else next_tick);
            class_stamp.(c) <- !rounds
          end;
          Buf.push class_bucket.(c) h
        end;
        if h = tail.(edge) then begin
          head.(edge) <- -1;
          let s = slot.(edge) in
          decr n_active;
          active.(s) <- active.(!n_active);
          slot.(active.(s)) <- s;
          Heads.pop heads
        end
        else begin
          head.(edge) <- next.(h);
          Heads.replace_top heads key.(next.(h)) edge
        end
      end
      else Heads.pop heads
    done;
    if !waiting > 0 then ignore (bucket_at next_tick);
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:(Tree.n tree));
    if Trace.enabled () then begin
      Trace.gauge "sim.queue_depth" (float_of_int (!waiting + !enabled));
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
  Trace.finish sp_schedule;
  let outcome =
    {
      makespan = !rounds;
      completion = completion.(0);
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

let lower_bound w _placement outcome =
  let tree = Workload.tree w in
  let cong =
    (Placement.congestion_of_edge_loads tree outcome.edge_traffic)
      .Placement.value
  in
  Float.max cong (float_of_int outcome.max_dilation)
