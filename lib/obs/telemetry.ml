type point = {
  round : int;
  vtime : float;
  rounds : int;
  sent : int;
  delivered : int;
  dropped : int;
  bytes : int;
  retransmits : int;
  dup_suppressed : int;
  replications : int;
  migrations : int;
  contractions : int;
  live_nodes : int;
  edges : (int * int) list;
  other_edges : int;
}

(* The busiest edges each point keeps exactly. *)
let top_k = 4

type t = {
  capacity : int;
  (* closed points, newest first; folded when the count tops capacity *)
  mutable history : point list;
  mutable count : int;
  mutable total_rounds : int;
  (* the open round, accumulated in place *)
  mutable cur_round : int;  (* -1 when no round is open *)
  mutable cur_vtime : float;
  mutable cur_sent : int;
  mutable cur_dropped : int;
  mutable cur_bytes : int;
  mutable cur_retransmits : int;
  mutable cur_dups : int;
  mutable cur_replications : int;
  mutable cur_migrations : int;
  mutable cur_contractions : int;
  edge_count : int array;  (* per-edge traversals of the open round *)
  mutable touched : int list;  (* edges with a non-zero count, unordered *)
}

let create ?(capacity = 256) ~num_edges () =
  if capacity < 2 then invalid_arg "Telemetry.create: capacity must be >= 2";
  {
    capacity;
    history = [];
    count = 0;
    total_rounds = 0;
    cur_round = -1;
    cur_vtime = 0.;
    cur_sent = 0;
    cur_dropped = 0;
    cur_bytes = 0;
    cur_retransmits = 0;
    cur_dups = 0;
    cur_replications = 0;
    cur_migrations = 0;
    cur_contractions = 0;
    edge_count = Array.make (max 1 num_edges) 0;
    touched = [];
  }

let begin_round ?vtime t ~round =
  if t.cur_round >= 0 then invalid_arg "Telemetry.begin_round: round still open";
  if round <= (match t.history with [] -> -1 | p :: _ -> p.round) then
    invalid_arg "Telemetry.begin_round: rounds must increase";
  let vtime = match vtime with Some v -> v | None -> float_of_int round in
  if Float.is_nan vtime
     || vtime <= (match t.history with [] -> Float.neg_infinity | p :: _ -> p.vtime)
  then invalid_arg "Telemetry.begin_round: virtual time must increase";
  t.cur_round <- round;
  t.cur_vtime <- vtime

let open_check t name =
  if t.cur_round < 0 then invalid_arg ("Telemetry." ^ name ^ ": no open round")

let send t ~edge ~bytes =
  open_check t "send";
  t.cur_sent <- t.cur_sent + 1;
  t.cur_bytes <- t.cur_bytes + bytes;
  if edge >= 0 && edge < Array.length t.edge_count then begin
    if t.edge_count.(edge) = 0 then t.touched <- edge :: t.touched;
    t.edge_count.(edge) <- t.edge_count.(edge) + 1
  end

let send_many t ~edge ~count ~bytes =
  open_check t "send_many";
  if count < 0 then invalid_arg "Telemetry.send_many: count must be >= 0";
  t.cur_sent <- t.cur_sent + count;
  t.cur_bytes <- t.cur_bytes + bytes;
  if count > 0 && edge >= 0 && edge < Array.length t.edge_count then begin
    if t.edge_count.(edge) = 0 then t.touched <- edge :: t.touched;
    t.edge_count.(edge) <- t.edge_count.(edge) + count
  end

let drop t =
  open_check t "drop";
  t.cur_dropped <- t.cur_dropped + 1

let retransmit t =
  open_check t "retransmit";
  t.cur_retransmits <- t.cur_retransmits + 1

let duplicate t =
  open_check t "duplicate";
  t.cur_dups <- t.cur_dups + 1

let reconfig t ~replications ~migrations ~contractions =
  open_check t "reconfig";
  if replications < 0 || migrations < 0 || contractions < 0 then
    invalid_arg "Telemetry.reconfig: counters must be >= 0";
  t.cur_replications <- t.cur_replications + replications;
  t.cur_migrations <- t.cur_migrations + migrations;
  t.cur_contractions <- t.cur_contractions + contractions

(* Cut an unordered (edge, count) list down to the top [top_k]: count
   descending, ties by edge id ascending, remainder summed. *)
let top_cut pairs =
  let sorted =
    List.sort
      (fun (e1, c1) (e2, c2) ->
        if c1 <> c2 then compare c2 c1 else compare e1 e2)
      pairs
  in
  let rec split i acc = function
    | rest when i = top_k -> (List.rev acc, rest)
    | x :: rest -> split (i + 1) (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let top, rest = split 0 [] sorted in
  (top, List.fold_left (fun acc (_, c) -> acc + c) 0 rest)

let fold_pair a b =
  (* [a] precedes [b] in time. *)
  let merged = Hashtbl.create 8 in
  let add (e, c) =
    Hashtbl.replace merged e (c + try Hashtbl.find merged e with Not_found -> 0)
  in
  List.iter add a.edges;
  List.iter add b.edges;
  let pairs = Hashtbl.fold (fun e c acc -> (e, c) :: acc) merged [] in
  let edges, spill = top_cut pairs in
  {
    round = b.round;
    vtime = b.vtime;
    rounds = a.rounds + b.rounds;
    sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    bytes = a.bytes + b.bytes;
    retransmits = a.retransmits + b.retransmits;
    dup_suppressed = a.dup_suppressed + b.dup_suppressed;
    replications = a.replications + b.replications;
    migrations = a.migrations + b.migrations;
    contractions = a.contractions + b.contractions;
    live_nodes = min a.live_nodes b.live_nodes;
    edges;
    other_edges = a.other_edges + b.other_edges + spill;
  }

(* Halve the resolution: fold points pairwise, oldest pair first. With
   an odd count the newest point stays exact. *)
let compact t =
  let chron = List.rev t.history in
  let rec go = function
    | a :: b :: rest -> fold_pair a b :: go rest
    | tail -> tail
  in
  let folded = go chron in
  t.history <- List.rev folded;
  t.count <- List.length folded

let end_round t ~live_nodes =
  open_check t "end_round";
  let pairs = List.map (fun e -> (e, t.edge_count.(e))) t.touched in
  let edges, other_edges = top_cut pairs in
  let p =
    {
      round = t.cur_round;
      vtime = t.cur_vtime;
      rounds = 1;
      sent = t.cur_sent;
      delivered = t.cur_sent - t.cur_dropped;
      dropped = t.cur_dropped;
      bytes = t.cur_bytes;
      retransmits = t.cur_retransmits;
      dup_suppressed = t.cur_dups;
      replications = t.cur_replications;
      migrations = t.cur_migrations;
      contractions = t.cur_contractions;
      live_nodes;
      edges;
      other_edges;
    }
  in
  List.iter (fun e -> t.edge_count.(e) <- 0) t.touched;
  t.touched <- [];
  t.cur_round <- -1;
  t.cur_sent <- 0;
  t.cur_dropped <- 0;
  t.cur_bytes <- 0;
  t.cur_retransmits <- 0;
  t.cur_dups <- 0;
  t.cur_replications <- 0;
  t.cur_migrations <- 0;
  t.cur_contractions <- 0;
  t.history <- p :: t.history;
  t.count <- t.count + 1;
  t.total_rounds <- t.total_rounds + 1;
  if t.count > t.capacity then compact t

let points t = List.rev t.history

let rounds_recorded t = t.total_rounds

let emit t ~prefix emit_ev =
  let series name ~round ~time ~span ~value ~edge =
    emit_ev
      {
        Sink.name = prefix ^ "." ^ name;
        id = 0;
        parent = 0;
        payload = Sink.Series { round; time; span; value; edge };
        attrs = [];
      }
  in
  List.iter
    (fun p ->
      let field name value =
        series name ~round:p.round ~time:p.vtime ~span:p.rounds ~value
          ~edge:(-1)
      in
      field "sent" p.sent;
      field "delivered" p.delivered;
      field "dropped" p.dropped;
      field "bytes" p.bytes;
      field "retransmits" p.retransmits;
      field "dup_suppressed" p.dup_suppressed;
      (* Reconfiguration counters are zero outside the serving tier;
         emitting them only when set keeps pre-existing traces
         byte-identical. *)
      if p.replications > 0 then field "replications" p.replications;
      if p.migrations > 0 then field "migrations" p.migrations;
      if p.contractions > 0 then field "contractions" p.contractions;
      field "live_nodes" p.live_nodes;
      List.iter
        (fun (edge, c) ->
          series "edge" ~round:p.round ~time:p.vtime ~span:p.rounds ~value:c
            ~edge)
        p.edges;
      if p.other_edges > 0 then field "edge_rest" p.other_edges)
    (points t)
