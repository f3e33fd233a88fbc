module Tree = Hbn_tree.Tree
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Link = Hbn_event.Link

type ('state, 'msg) node_fn =
  round:int ->
  node:int ->
  'state ->
  inbox:(int * 'msg) list ->
  'state * (int * 'msg) list

type stats = {
  rounds : int;
  messages : int;
  max_inbox : int;
  max_node_messages : int;
}

type termination = Quiescent | Round_limit

type 'state outcome = {
  states : 'state array;
  stats : stats;
  termination : termination;
  faults : Faults.event list;
}

(* One loop for both timing models. Nodes step at ticks 1, 2, …; a
   message sent at tick [now] arriving at [arrival] waits in the transit
   bucket of tick [max (ceil arrival) (now + 1)], the first tick at or
   after its arrival, and each bucket is delivered at the start of its
   tick in arrival order, ties in send order. Without a link model every
   arrival is [now + 1] and the ticks are exactly the rounds of the
   classic synchronous loop, bit for bit; with one, arrivals come from
   the serialized per-level {!Link.transmit} clock. Ticks stay
   consecutive integers either way — timers in step functions keep
   counting rounds — so the round axis {e is} the virtual-time axis and
   the outcome type needs no second clock. *)
let run ?(max_rounds = 100_000) ?(quiet_rounds = 1) ?faults ?telemetry
    ?(msg_bytes = fun _ -> 1) ?link tree ~init ~step =
  if quiet_rounds < 1 then invalid_arg "Runtime.run: quiet_rounds must be >= 1";
  let n = Tree.n tree in
  (* An empty plan and no plan are the same run, bit for bit. *)
  let plan =
    match faults with
    | Some p when not (Faults.is_empty p) -> Some p
    | _ -> None
  in
  let quiet_after = match plan with None -> 0 | Some p -> Faults.quiet_after p in
  let attached = Option.map (fun c -> Link.attach c tree) link in
  let states = Array.init n init in
  (* Per-node inbox, newest delivery first; reversed at consumption, so
     the step function sees deliveries in arrival order. *)
  let inboxes = Array.make n [] in
  let through = Array.make n 0 in
  let rounds = ref 0 and messages = ref 0 and max_inbox = ref 0 in
  let termination = ref Quiescent in
  let silent = ref 0 in
  let in_flight = ref 0 in
  (* Messages in transit: consuming tick -> (arrival, sender, target,
     message), newest send first. *)
  let transit = Hashtbl.create 64 in
  let log = ref [] (* reverse chronological *) in
  let record round kind = log := { Faults.round; kind } :: !log in
  (* Per-node neighbor membership, precomputed once: [edge_of.(v)] maps a
     neighbor [u] to the id of the edge {v,u}. Sends used to re-scan
     [Tree.neighbors] per message — O(degree), quadratic over a round on a
     star — and the fault layer needs the edge id anyway. *)
  let edge_of =
    Array.init n (fun v ->
        let nbrs = Tree.neighbors tree v in
        let tbl = Hashtbl.create (Array.length nbrs) in
        Array.iter (fun (u, e) -> Hashtbl.add tbl u e) nbrs;
        tbl)
  in
  (* [sent_to.(u) = stamp] once the node stepping under [stamp] has sent
     to [u]; every node step takes a fresh stamp. *)
  let sent_to = Array.make n (-1) and stamp = ref (-1) in
  (* Crash/outage window transitions, logged as they open and close. *)
  let down_prev = Array.make n false in
  let cut_prev = Array.make (Tree.num_edges tree) false in
  let log_transitions p round =
    for v = 0 to n - 1 do
      let d = Faults.node_down p ~round ~node:v in
      if d <> down_prev.(v) then
        record round
          (if d then Faults.Crashed { node = v }
           else Faults.Restarted { node = v });
      down_prev.(v) <- d
    done;
    for e = 0 to Tree.num_edges tree - 1 do
      let c = Faults.edge_cut p ~round ~edge:e in
      if c <> cut_prev.(e) then
        record round
          (if c then Faults.Cut { edge = e } else Faults.Restored { edge = e });
      cut_prev.(e) <- c
    done
  in
  (* Runs the tick at [now]; [false] once the run is over. *)
  let tick now =
    incr rounds;
    let round = int_of_float now in
    (match Hashtbl.find_opt transit now with
    | None -> ()
    | Some sent ->
      Hashtbl.remove transit now;
      List.iter
        (fun (_, src, target, msg) ->
          decr in_flight;
          inboxes.(target) <- (src, msg) :: inboxes.(target))
        (List.stable_sort
           (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)
           (List.rev !sent)));
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.begin_round ~vtime:now tel ~round);
    (match plan with None -> () | Some p -> log_transitions p round);
    let any_sent = ref false in
    let live = ref n in
    for v = 0 to n - 1 do
      let v_down =
        match plan with
        | None -> false
        | Some p -> Faults.node_down p ~round ~node:v
      in
      if v_down then begin
        (* A crashed node neither steps nor receives; its state is
           frozen. Its inbox is empty by construction: messages to it
           were dropped at send time. *)
        decr live;
        inboxes.(v) <- []
      end
      else begin
        let inbox = List.rev inboxes.(v) in
        inboxes.(v) <- [];
        let k = List.length inbox in
        if k > !max_inbox then max_inbox := k;
        let state, sends = step ~round ~node:v states.(v) ~inbox in
        states.(v) <- state;
        incr stamp;
        List.iter
          (fun (target, msg) ->
            match Hashtbl.find_opt edge_of.(v) target with
            | None ->
              invalid_arg
                (Printf.sprintf "Runtime.run: node %d is no neighbor of %d"
                   target v)
            | Some edge ->
              if sent_to.(target) = !stamp then
                invalid_arg
                  (Printf.sprintf
                     "Runtime.run: node %d sent twice over edge to %d in \
                      round %d"
                     v target round);
              sent_to.(target) <- !stamp;
              any_sent := true;
              incr messages;
              through.(v) <- through.(v) + 1;
              through.(target) <- through.(target) + 1;
              (match telemetry with
              | None -> ()
              | Some tel -> Telemetry.send tel ~edge ~bytes:(msg_bytes msg));
              (* The serialized transmission happens whether or not a
                 fault then swallows the message — a dropped frame still
                 occupied its link. *)
              let arrival =
                match attached with
                | None -> now +. 1.
                | Some l ->
                  Link.transmit l ~now ~edge ~src:v ~bytes:(msg_bytes msg)
              in
              let lost =
                match plan with
                | None -> false
                | Some p ->
                  Faults.edge_cut p ~round ~edge
                  || Faults.drops p ~round ~edge ~src:v
                  || Faults.node_down p
                       ~round:(Faults.round_of_time arrival)
                       ~node:target
              in
              if lost then begin
                (match telemetry with
                | None -> ()
                | Some tel -> Telemetry.drop tel);
                record round (Faults.Dropped { edge; src = v; dst = target })
              end
              else begin
                incr in_flight;
                let m = (arrival, v, target, msg) in
                let at = Float.max (Float.ceil arrival) (now +. 1.) in
                match Hashtbl.find_opt transit at with
                | Some sent -> sent := m :: !sent
                | None -> Hashtbl.add transit at (ref [ m ])
              end)
          sends
      end
    done;
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:!live);
    if !any_sent then silent := 0 else incr silent;
    (* Drop-tolerant termination detection: silence only proves
       quiescence once every pending retransmit timer would have fired
       ([quiet_rounds] consecutive silent rounds), no crash or outage
       window can still wake a node up ([quiet_after]), and nothing is
       still in transit on a slow link. With no plan and the default
       window of 1 this is the classic rule: one round without sends. *)
    if !silent >= quiet_rounds && round >= quiet_after && !in_flight = 0 then
      false
    else if round >= max_rounds then begin
      termination := Round_limit;
      false
    end
    else true
  in
  if max_rounds < 1 then termination := Round_limit
  else begin
    let now = ref 1. in
    while tick !now do
      now := !now +. 1.
    done
  end;
  let stats =
    {
      rounds = !rounds;
      messages = !messages;
      max_inbox = !max_inbox;
      max_node_messages = Array.fold_left max 0 through;
    }
  in
  let faults_log = List.rev !log in
  if Trace.enabled () then begin
    Trace.count ~by:stats.messages "runtime.messages";
    Trace.count ~by:stats.rounds "runtime.rounds";
    Trace.event
      (match !termination with
      | Quiescent -> "runtime.quiescent"
      | Round_limit -> "runtime.round_limit")
      ~attrs:
        [
          ("rounds", Sink.Int stats.rounds);
          ("messages", Sink.Int stats.messages);
          ("max_inbox", Sink.Int stats.max_inbox);
          ("max_node_messages", Sink.Int stats.max_node_messages);
        ];
    if plan <> None then begin
      List.iter (fun ev -> Trace.emit (Faults.sink_event ev)) faults_log;
      let dropped =
        List.length
          (List.filter
             (fun ev ->
               match ev.Faults.kind with Faults.Dropped _ -> true | _ -> false)
             faults_log)
      in
      if dropped > 0 then Trace.count ~by:dropped "runtime.dropped"
    end
  end;
  { states; stats; termination = !termination; faults = faults_log }
