module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Trace = Hbn_obs.Trace
module Telemetry = Hbn_obs.Telemetry

type msg =
  | Sub of { obj : int; h : int; w : int }
  | Tot of { obj : int; total_h : int; total_w : int }
  | Min_cand of { obj : int; cand : int }  (* max_int = no candidate *)
  | Grav of { obj : int; gravity : int }  (* -1 = object unused *)

type node_state = {
  parent : int;  (* -1 at the root *)
  children : int list;
  (* per-object protocol state *)
  child_h : int array array;  (* indexed like [children] *)
  child_w : int array array;
  subs_missing : int array;
  h_sub : int array;
  w_sub : int array;
  total_h : int array;
  total_w : int array;
  child_min : int array array;
  mins_missing : int array;
  holds_copy : bool array;
  decided : bool array;
  (* outgoing queues, one per neighbor, drained one message per round *)
  outq : (int * msg Queue.t) list;
}

let enqueue st target msg = Queue.add msg (List.assoc target st.outq)

(* Candidacy: every component around v carries at most half the total. *)
let is_candidate st ~obj =
  let above = st.total_h.(obj) - st.h_sub.(obj) in
  let worst = Array.fold_left max above st.child_h.(obj) in
  2 * worst <= st.total_h.(obj)

let child_index st c =
  let rec go i = function
    | [] -> invalid_arg "Dist_nibble: unknown child"
    | x :: rest -> if x = c then i else go (i + 1) rest
  in
  go 0 st.children

let decide st ~node ~obj ~gravity =
  st.decided.(obj) <- true;
  if gravity < 0 then st.holds_copy.(obj) <- false
  else if gravity = node then st.holds_copy.(obj) <- true
  else begin
    (* Direction to the gravity center: the child whose subtree reported
       it as its candidate minimum, otherwise the parent. *)
    let via_child = ref (-1) in
    List.iteri
      (fun i c -> if st.child_min.(obj).(i) = gravity then via_child := c)
      st.children;
    let subtree_weight =
      if !via_child >= 0 then
        st.total_h.(obj) - st.child_h.(obj).(child_index st !via_child)
      else st.h_sub.(obj)
    in
    st.holds_copy.(obj) <- subtree_weight > st.total_w.(obj)
  end

let maybe_finish_min st ~node ~obj =
  if st.mins_missing.(obj) = 0 && st.total_h.(obj) > 0 && not st.decided.(obj)
  then begin
    let own = if is_candidate st ~obj then node else max_int in
    let best = Array.fold_left min own st.child_min.(obj) in
    if st.parent >= 0 then enqueue st st.parent (Min_cand { obj; cand = best })
    else begin
      (* The root elects the gravity center and starts the final wave. *)
      decide st ~node ~obj ~gravity:best;
      List.iter (fun c -> enqueue st c (Grav { obj; gravity = best })) st.children
    end
  end

let finish_sub st ~node ~obj =
  if st.parent >= 0 then
    enqueue st st.parent (Sub { obj; h = st.h_sub.(obj); w = st.w_sub.(obj) })
  else begin
    (* Root: the totals are now known; start the downward phase. *)
    st.total_h.(obj) <- st.h_sub.(obj);
    st.total_w.(obj) <- st.w_sub.(obj);
    List.iter
      (fun c ->
        enqueue st c
          (Tot { obj; total_h = st.total_h.(obj); total_w = st.total_w.(obj) }))
      st.children;
    if st.total_h.(obj) = 0 then begin
      (* Unused object: nobody holds a copy. *)
      decide st ~node ~obj ~gravity:(-1);
      List.iter (fun c -> enqueue st c (Grav { obj; gravity = -1 })) st.children
    end
    else maybe_finish_min st ~node ~obj
  end

(* One protocol message, applied to the local state. Shared between the
   lossless step function and the fault-hardened one — the reliable link
   layer below delivers each payload exactly once and in order, so the
   handlers need no idempotence of their own. *)
let handle st ~node ~sender msg =
  match msg with
  | Sub { obj; h; w = wr } ->
    let i = child_index st sender in
    st.child_h.(obj).(i) <- h;
    st.child_w.(obj).(i) <- wr;
    st.h_sub.(obj) <- st.h_sub.(obj) + h;
    st.w_sub.(obj) <- st.w_sub.(obj) + wr;
    st.subs_missing.(obj) <- st.subs_missing.(obj) - 1;
    if st.subs_missing.(obj) = 0 then finish_sub st ~node ~obj
  | Tot { obj; total_h; total_w } ->
    st.total_h.(obj) <- total_h;
    st.total_w.(obj) <- total_w;
    List.iter (fun c -> enqueue st c (Tot { obj; total_h; total_w })) st.children;
    maybe_finish_min st ~node ~obj
  | Min_cand { obj; cand } ->
    let i = child_index st sender in
    st.child_min.(obj).(i) <- cand;
    st.mins_missing.(obj) <- st.mins_missing.(obj) - 1;
    maybe_finish_min st ~node ~obj
  | Grav { obj; gravity } ->
    decide st ~node ~obj ~gravity;
    List.iter (fun c -> enqueue st c (Grav { obj; gravity })) st.children

let neighbors_of (r : Tree.rooted) v =
  (if v = r.Tree.root then [] else [ r.Tree.parent.(v) ])
  @ Array.to_list r.Tree.children.(v)

let proto_init w (r : Tree.rooted) objects v =
  let children = Array.to_list r.Tree.children.(v) in
  let nc = List.length children in
  {
    parent = r.Tree.parent.(v);
    children;
    child_h = Array.init objects (fun _ -> Array.make nc 0);
    child_w = Array.init objects (fun _ -> Array.make nc 0);
    subs_missing = Array.make objects nc;
    h_sub = Array.init objects (fun obj -> Workload.weight w ~obj v);
    w_sub = Array.init objects (fun obj -> Workload.writes w ~obj v);
    total_h = Array.make objects (-1);
    total_w = Array.make objects (-1);
    child_min = Array.init objects (fun _ -> Array.make nc max_int);
    mins_missing = Array.make objects nc;
    holds_copy = Array.make objects false;
    decided = Array.make objects false;
    outq = List.map (fun u -> (u, Queue.create ())) (neighbors_of r v);
  }

(* Drain at most one queued message per incident edge. *)
let drain_one st =
  List.filter_map
    (fun (u, q) ->
      match Queue.take_opt q with Some m -> Some (u, m) | None -> None)
    st.outq

let collect_result tree objects states ~decided ~holds_copy =
  let result = Array.make objects [] in
  let undecided = ref 0 in
  for obj = objects - 1 downto 0 do
    for v = Tree.n tree - 1 downto 0 do
      if not (decided states.(v) obj) then incr undecided
      else if holds_copy states.(v) obj then result.(obj) <- v :: result.(obj)
    done
  done;
  (result, !undecided)

let run w =
  let tree = Workload.tree w in
  let r = Tree.rooting tree in
  let objects = Workload.num_objects w in
  let init = proto_init w r objects in
  let step ~round ~node st ~inbox =
    (* Nodes without children (and the single-node network's root) kick
       off their convergecast contributions in round 1. *)
    if round = 1 then
      for obj = 0 to objects - 1 do
        if st.subs_missing.(obj) = 0 then finish_sub st ~node ~obj
      done;
    List.iter (fun (sender, msg) -> handle st ~node ~sender msg) inbox;
    (st, drain_one st)
  in
  let out = Runtime.run tree ~init ~step in
  if out.Runtime.termination = Runtime.Round_limit then
    failwith "Runtime.run: round limit reached";
  let result, undecided =
    collect_result tree objects out.Runtime.states
      ~decided:(fun st obj -> st.decided.(obj))
      ~holds_copy:(fun st obj -> st.holds_copy.(obj))
  in
  if undecided > 0 then failwith "Dist_nibble.run: a node never decided";
  (result, out.Runtime.stats)

(* -- fault-hardened execution ------------------------------------------- *)

(* A reliable link: stop-and-wait with cumulative acknowledgements over
   one directed edge. Frames carry a sequence number, the highest
   delivered sequence of the reverse direction (piggybacked ack), and an
   optional payload; a frame with no payload is a pure ack. The sender
   keeps at most one frame in flight and retransmits it every [timeout]
   rounds until acked; the receiver delivers in sequence order exactly
   once and re-acks duplicates. *)
type frame = { seq : int; ack : int; payload : msg option }

type link = {
  mutable next_seq : int;  (* sequence for the next fresh payload *)
  mutable unacked : (int * msg) option;  (* the frame in flight *)
  mutable last_send : int;  (* round [unacked] was last transmitted *)
  mutable expected : int;  (* next sequence to deliver from the peer *)
  mutable ack_pending : bool;  (* delivered since our last frame out *)
}

type hardened_state = {
  p : node_state;
  links : (int * link) list;
  mutable started : bool;
      (* the convergecast kickoff ran — a flag rather than [round = 1] so
         a node crashed in round 1 still initiates after its restart *)
}

type robust_stats = {
  runtime : Runtime.stats;
  retransmissions : int;
  duplicates : int;
  pure_acks : int;
  undecided : int;
}

type outcome =
  | Complete of {
      placement : int list array;
      stats : robust_stats;
      log : Faults.event list;
    }
  | Degraded of {
      reason : [ `Round_limit | `Undecided ];
      partial : int list array;
      stats : robust_stats;
      log : Faults.event list;
    }

(* Frame sizing for the telemetry byte series: a link-layer header of
   two ints (seq + piggybacked ack), plus the payload's own fields. *)
let msg_payload_bytes = function
  | Sub _ | Tot _ -> 24  (* obj + two aggregates *)
  | Min_cand _ | Grav _ -> 16  (* obj + one value *)

let frame_bytes fr =
  16 + match fr.payload with None -> 0 | Some m -> msg_payload_bytes m

let run_robust ?(max_rounds = 100_000) ?(timeout = 4) ?(faults = Faults.none)
    ?telemetry ?link w =
  if timeout < 1 then invalid_arg "Dist_nibble.run_robust: timeout must be >= 1";
  let tree = Workload.tree w in
  let r = Tree.rooting tree in
  let objects = Workload.num_objects w in
  let retransmissions = ref 0 and duplicates = ref 0 and pure_acks = ref 0 in
  (* Protocol-level telemetry hooks: these fire from inside [step],
     between the runtime's begin_round/end_round, so retransmits and
     duplicate suppressions land in the round they happened in. *)
  let tel_retransmit () =
    match telemetry with None -> () | Some t -> Telemetry.retransmit t
  and tel_duplicate () =
    match telemetry with None -> () | Some t -> Telemetry.duplicate t
  in
  let init v =
    {
      p = proto_init w r objects v;
      links =
        List.map
          (fun u ->
            ( u,
              {
                next_seq = 0;
                unacked = None;
                last_send = 0;
                expected = 0;
                ack_pending = false;
              } ))
          (neighbors_of r v);
      started = false;
    }
  in
  let step ~round ~node st ~inbox =
    if not st.started then begin
      st.started <- true;
      for obj = 0 to objects - 1 do
        if st.p.subs_missing.(obj) = 0 then finish_sub st.p ~node ~obj
      done
    end;
    List.iter
      (fun (sender, fr) ->
        let l = List.assoc sender st.links in
        (match l.unacked with
        | Some (s, _) when fr.ack >= s -> l.unacked <- None
        | _ -> ());
        match fr.payload with
        | None -> ()
        | Some m ->
          if fr.seq = l.expected then begin
            l.expected <- l.expected + 1;
            l.ack_pending <- true;
            handle st.p ~node ~sender m
          end
          else begin
            (* A retransmit of something already delivered: the ack back
               must have been lost, so re-ack. *)
            incr duplicates;
            tel_duplicate ();
            l.ack_pending <- true
          end)
      inbox;
    let sends =
      List.filter_map
        (fun (peer, l) ->
          let frame seq payload =
            l.ack_pending <- false;
            Some (peer, { seq; ack = l.expected - 1; payload })
          in
          match l.unacked with
          | Some (s, m) ->
            if round - l.last_send >= timeout then begin
              incr retransmissions;
              tel_retransmit ();
              l.last_send <- round;
              frame s (Some m)
            end
            else if l.ack_pending then begin
              incr pure_acks;
              frame (-1) None
            end
            else None
          | None -> (
            match Queue.take_opt (List.assoc peer st.p.outq) with
            | Some m ->
              let s = l.next_seq in
              l.next_seq <- s + 1;
              l.unacked <- Some (s, m);
              l.last_send <- round;
              frame s (Some m)
            | None ->
              if l.ack_pending then begin
                incr pure_acks;
                frame (-1) None
              end
              else None))
        st.links
    in
    (st, sends)
  in
  let out =
    (* The stop-and-wait timers count rounds; a link model keeps the
       runtime's ticks on the integer virtual times, so [timeout] means
       the same thing with or without one. *)
    Runtime.run ~max_rounds ~quiet_rounds:(timeout + 1) ~faults ?telemetry
      ~msg_bytes:frame_bytes ?link tree ~init ~step
  in
  let placement, undecided =
    collect_result tree objects out.Runtime.states
      ~decided:(fun st obj -> st.p.decided.(obj))
      ~holds_copy:(fun st obj -> st.p.holds_copy.(obj))
  in
  let stats =
    {
      runtime = out.Runtime.stats;
      retransmissions = !retransmissions;
      duplicates = !duplicates;
      pure_acks = !pure_acks;
      undecided;
    }
  in
  if Trace.enabled () && !retransmissions > 0 then
    Trace.count ~by:!retransmissions "dist.retransmissions";
  match (out.Runtime.termination, undecided) with
  | Runtime.Quiescent, 0 ->
    Complete { placement; stats; log = out.Runtime.faults }
  | Runtime.Round_limit, _ ->
    Degraded
      { reason = `Round_limit; partial = placement; stats;
        log = out.Runtime.faults }
  | Runtime.Quiescent, _ ->
    Degraded
      { reason = `Undecided; partial = placement; stats;
        log = out.Runtime.faults }
