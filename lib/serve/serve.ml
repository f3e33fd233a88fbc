module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Prng = Hbn_prng.Prng
module Loads = Hbn_loads.Loads
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Strategy = Hbn_core.Strategy
module Text = Hbn_util.Text

type config = {
  slots_per_epoch : int;
  epochs : int;
  top_k : int;
  budget_bytes : int;
  hysteresis : float;
  obj_size : int;
  msg_bytes : int;
  climb_iters : int;
  seed : int;
  oracle : bool;
  capacity : int;
}

let default =
  {
    slots_per_epoch = 16;
    epochs = 32;
    top_k = 4;
    budget_bytes = 4096;
    hysteresis = 0.5;
    obj_size = 64;
    msg_bytes = 32;
    climb_iters = 200;
    seed = 1;
    oracle = true;
    capacity = 512;
  }

type source = Generator of Drift.t | Tables of Workload.t array

type epoch_stats = {
  s_epoch : int;
  s_requests : int;
  s_congestion : float;
  s_stale : float;
  s_oracle : float;
  s_reoptimized : bool;
  s_bytes_migrated : int;
  s_replications : int;
  s_migrations : int;
  s_contractions : int;
  s_alerts : int;
}

type outcome = {
  epochs : epoch_stats list;
  total_requests : int;
  total_bytes_migrated : int;
  reoptimized_epochs : int;
  verdict : Monitor.verdict;
  alerts : Monitor.alert list;
  telemetry : Telemetry.t;
  monitor : Monitor.t;
  final_copies : int list array;
}

let validate cfg =
  if cfg.slots_per_epoch < 1 then
    invalid_arg "Serve.run: slots_per_epoch must be >= 1";
  if cfg.epochs < 1 then invalid_arg "Serve.run: epochs must be >= 1";
  if cfg.top_k < 1 then invalid_arg "Serve.run: top_k must be >= 1";
  if cfg.budget_bytes < 0 then invalid_arg "Serve.run: budget_bytes < 0";
  if not (cfg.hysteresis >= 0.0 && Float.is_finite cfg.hysteresis) then
    invalid_arg "Serve.run: hysteresis must be finite and >= 0";
  if cfg.obj_size < 1 then invalid_arg "Serve.run: obj_size must be >= 1";
  if cfg.msg_bytes < 1 then invalid_arg "Serve.run: msg_bytes must be >= 1";
  if cfg.climb_iters < 0 then invalid_arg "Serve.run: climb_iters < 0";
  if cfg.capacity < 2 then invalid_arg "Serve.run: capacity must be >= 2"

(* Alerts on the reconfiguration counters are the loop hearing its own
   footsteps; they never trigger the next re-optimization. *)
let reconfig_series = [ "replications"; "migrations"; "contractions" ]

let base_series name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let triggering a = not (List.mem (base_series a.Monitor.a_series) reconfig_series)

(* One copy on the object's owner ([Workload.owner]) — the same rule for
   the serving state and the stale baseline, so a late-appearing object
   never skews the comparison. *)
let bootstrap w copies =
  for obj = 0 to Workload.num_objects w - 1 do
    if copies.(obj) = [] then
      copies.(obj) <- Option.to_list (Workload.owner w ~obj)
  done

(* The hot objects: each object's load summed over the [2k] hottest
   sites ([Placement.rank_sites]), largest total first (ties: lower
   object id), objects with nothing there dropped. A bus counts the load
   of its incident edges, so an edge that is hot itself and next to a
   hot bus counts twice. *)
let hot_objects eng ~k =
  let w = Loads.workload eng in
  let tree = Workload.tree w in
  let c = Placement.congestion_of_edge_loads tree (Loads.edge_loads eng) in
  let hot_edges =
    Placement.rank_sites tree c ~k:(2 * k)
    |> List.concat_map (function
         | `Edge e, _ -> [ e ]
         | `Bus b, _ -> Array.to_list (Array.map snd (Tree.neighbors tree b)))
  in
  List.init (Workload.num_objects w) (fun obj ->
      let loads = Loads.object_edge_loads eng ~obj in
      (obj, List.fold_left (fun s e -> s + loads.(e)) 0 hot_edges))
  |> List.filter (fun (_, a) -> a > 0)
  |> List.stable_sort (fun (_, a1) (_, a2) -> compare a2 a1)
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst |> Array.of_list

type proposal = Add of int | Move of int * int | Remove of int

(* Hot-object hill climb on the live engine. Every proposal is priced in
   migration bytes (size x edges moved) against the hard budget before
   it is even tried; the whole climb commits only if the hysteresis
   inequality holds, else the outer checkpoint rolls everything back. *)
let climb cfg tree leaves eng ~prng ~hot =
  let cp0 = Loads.checkpoint eng in
  let c0 = Loads.congestion eng in
  let current = ref c0 in
  let fl = Flat.of_tree tree in
  let bytes = ref 0 and repl = ref 0 and migr = ref 0 and contr = ref 0 in
  let nearest_dist obj l =
    List.fold_left
      (fun acc c -> min acc (Flat.distance fl l c))
      max_int
      (Loads.copies eng ~obj)
  in
  let num_leaves = Array.length leaves in
  for _ = 1 to cfg.climb_iters do
    let obj = hot.(Prng.int prng (Array.length hot)) in
    let copies = Loads.copies eng ~obj in
    let k = List.length copies in
    if k > 0 && num_leaves > 0 then begin
      let prop =
        match Prng.int prng 3 with
        | 0 ->
          let l = leaves.(Prng.int prng num_leaves) in
          if Loads.has_copy eng ~obj l then None
          else Some (Add l, cfg.obj_size * nearest_dist obj l)
        | 1 ->
          let src = List.nth copies (Prng.int prng k) in
          let dst = leaves.(Prng.int prng num_leaves) in
          if Loads.has_copy eng ~obj dst then None
          else Some (Move (src, dst), cfg.obj_size * Flat.distance fl src dst)
        | _ ->
          if k < 2 then None
          else Some (Remove (List.nth copies (Prng.int prng k)), 0)
      in
      match prop with
      | None -> ()
      | Some (p, cost) ->
        if !bytes + cost <= cfg.budget_bytes then begin
          let cp = Loads.checkpoint eng in
          (match p with
          | Add l -> Loads.add_copy eng ~obj l
          | Move (src, dst) -> Loads.move_copy eng ~obj ~src ~dst
          | Remove l -> Loads.remove_copy eng ~obj l);
          let c = Loads.congestion eng in
          (* Strict improvement: equal-congestion churn would burn the
             migration budget for nothing. *)
          if c < !current then begin
            current := c;
            bytes := !bytes + cost;
            match p with
            | Add _ -> incr repl
            | Move _ -> incr migr
            | Remove _ -> incr contr
          end
          else Loads.rollback eng cp
        end
    end
  done;
  let saved = c0 -. !current in
  let allowed =
    cfg.hysteresis *. saved
    *. float_of_int cfg.slots_per_epoch
    *. float_of_int cfg.msg_bytes
  in
  if saved > 0.0 && float_of_int !bytes <= allowed then
    (true, !bytes, !repl, !migr, !contr)
  else begin
    Loads.rollback eng cp0;
    (false, 0, 0, 0, 0)
  end

(* [f ()] inside a span; the epoch's phases are its children. *)
let traced name f =
  let sp = Trace.span name in
  Fun.protect ~finally:(fun () -> Trace.finish sp) f

let run ?exec cfg source =
  validate cfg;
  let table_of, tree =
    match source with
    | Generator d -> ((fun e -> Drift.workload d ~epoch:e), Drift.tree d)
    | Tables ts ->
      if Array.length ts = 0 then invalid_arg "Serve.run: no tables";
      if Array.length ts < cfg.epochs then
        invalid_arg "Serve.run: tables cover fewer epochs than config.epochs";
      ((fun e -> ts.(e)), Workload.tree ts.(0))
  in
  let n = Tree.n tree in
  let num_edges = Tree.num_edges tree in
  let leaves = Tree.leaves_array tree in
  let w0 = table_of 0 in
  let num_objects = Workload.num_objects w0 in
  let check_table w =
    let t = Workload.tree w in
    if Tree.n t <> n || Tree.num_edges t <> num_edges then
      invalid_arg "Serve.run: epoch table over a different topology shape";
    if Workload.num_objects w <> num_objects then
      invalid_arg "Serve.run: epoch table with a different object count"
  in
  (* Initial placement: the static strategy on the first table. *)
  let init = Strategy.run ?exec w0 in
  let cur =
    Array.init num_objects (fun obj ->
        Placement.copies init.Strategy.placement ~obj)
  in
  let stale = Array.copy cur in
  let tel = Telemetry.create ~capacity:cfg.capacity ~num_edges () in
  let mon = Monitor.create ~prefix:"serve" () in
  let stats_rev = ref [] in
  let prev_alert_count = ref 0 in
  let trigger_next = ref false in
  let total_requests = ref 0 in
  let total_bytes = ref 0 in
  let reopt_epochs = ref 0 in
  for e = 0 to cfg.epochs - 1 do
    let w = if e = 0 then w0 else table_of e in
    if e > 0 then check_table w;
    let sp_epoch = Trace.span "serve.epoch" in
    bootstrap w cur;
    let eng = traced "serve.epoch.engine" (fun () -> Loads.of_copies w cur) in
    (* Epoch boundary: the previous epoch's alerts decide whether the
       hot objects get re-optimized before this epoch serves. *)
    let reopt, bytes, repl, migr, contr =
      if e > 0 && !trigger_next then
        traced "serve.epoch.climb" @@ fun () ->
        let hot = hot_objects eng ~k:cfg.top_k in
        if Array.length hot = 0 then (false, 0, 0, 0, 0)
        else
          let prng =
            Prng.create
              (Int64.to_int (Prng.hash ~seed:cfg.seed [ 5; e ]) land max_int)
          in
          climb cfg tree leaves eng ~prng ~hot
      else (false, 0, 0, 0, 0)
    in
    if reopt then begin
      for obj = 0 to num_objects - 1 do
        cur.(obj) <- Loads.copies eng ~obj
      done;
      incr reopt_epochs;
      total_bytes := !total_bytes + bytes
    end;
    let el = Loads.edge_loads eng in
    let c_serve = Loads.congestion eng in
    (* The stale and oracle copy sets are only priced, never mutated:
       [Placement.nearest] is the same nearest-copy model the engine
       maintains, so all three numbers share one congestion scale (the
       engine's congestion is bit-identical to it). *)
    let priced copies = Placement.congestion w (Placement.nearest w ~copies) in
    let c_stale =
      traced "serve.epoch.pricing" @@ fun () ->
      let st = Array.copy stale in
      bootstrap w st;
      priced st
    in
    (* The oracle is a fresh static re-place on this epoch's table. *)
    let c_oracle =
      if cfg.oracle then
        traced "serve.epoch.oracle" @@ fun () ->
        let res = Strategy.run ?exec w in
        priced
          (Array.init num_objects (fun obj ->
               Placement.copies res.Strategy.placement ~obj))
      else Float.nan
    in
    let sent = Array.fold_left ( + ) 0 el in
    let peak = Array.fold_left max 0 el in
    let requests = Workload.total_requests w * cfg.slots_per_epoch in
    total_requests := !total_requests + requests;
    for s = 0 to cfg.slots_per_epoch - 1 do
      let abs = (e * cfg.slots_per_epoch) + s in
      Telemetry.begin_round tel ~round:abs;
      Array.iteri
        (fun edge c ->
          if c > 0 then
            Telemetry.send_many tel ~edge ~count:c ~bytes:(c * cfg.msg_bytes))
        el;
      let j = Drift.slot_jitter ~seed:cfg.seed ~slot:abs in
      if j > 0 then
        Telemetry.send_many tel ~edge:(-1) ~count:j ~bytes:(j * cfg.msg_bytes);
      if s = 0 && reopt then
        Telemetry.reconfig tel ~replications:repl ~migrations:migr
          ~contractions:contr;
      Telemetry.end_round tel ~live_nodes:n;
      (* The monitor is fed the exact per-slot values directly — the
         collector may fold for memory, the detectors never miss a
         slot. *)
      let obs name v =
        Monitor.observe mon ~series:name ~round:abs ~vtime:(float_of_int abs)
          ~span:1 v
      in
      obs "sent" (float_of_int (sent + j));
      obs "bytes" (float_of_int ((sent + j) * cfg.msg_bytes));
      obs "congestion" c_serve;
      obs "edge_peak" (float_of_int peak);
      if sent > 0 then
        obs "hotspot_share" (float_of_int peak /. float_of_int sent);
      let at_boundary v = if s = 0 then float_of_int v else 0.0 in
      obs "replications" (at_boundary (if reopt then repl else 0));
      obs "migrations" (at_boundary (if reopt then migr else 0));
      obs "contractions" (at_boundary (if reopt then contr else 0));
      obs "live_nodes" (float_of_int n)
    done;
    let all_alerts = Monitor.alerts mon in
    let count = List.length all_alerts in
    let fresh = List.filteri (fun i _ -> i >= !prev_alert_count) all_alerts in
    prev_alert_count := count;
    trigger_next := List.exists triggering fresh;
    (* The turnaround goes to the trace only: telemetry and monitor
       series drive re-optimization and must not depend on the clock. *)
    if Trace.enabled () then begin
      Trace.gauge "serve.epoch.turnaround_ms" (Trace.elapsed_ms sp_epoch);
      Trace.finish sp_epoch
        ~attrs:
          [ ("epoch", Sink.Int e); ("reoptimized", Sink.Bool reopt) ]
    end;
    stats_rev :=
      {
        s_epoch = e;
        s_requests = requests;
        s_congestion = c_serve;
        s_stale = c_stale;
        s_oracle = c_oracle;
        s_reoptimized = reopt;
        s_bytes_migrated = bytes;
        s_replications = repl;
        s_migrations = migr;
        s_contractions = contr;
        s_alerts = List.length fresh;
      }
      :: !stats_rev
  done;
  {
    epochs = List.rev !stats_rev;
    total_requests = !total_requests;
    total_bytes_migrated = !total_bytes;
    reoptimized_epochs = !reopt_epochs;
    verdict = Monitor.health mon;
    alerts = Monitor.alerts mon;
    telemetry = tel;
    monitor = mon;
    final_copies = cur;
  }

let tables d ~epochs =
  if epochs < 1 then invalid_arg "Serve.tables: epochs must be >= 1";
  Array.init epochs (fun e -> Drift.workload d ~epoch:e)

(* -- replay files ------------------------------------------------------- *)

let save_tables path ts =
  if Array.length ts = 0 then Error "no tables to save"
  else begin
    let w0 = ts.(0) in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf "hbn-serve-tables 1\nepochs %d\nnodes %d\nobjects %d\n"
      (Array.length ts) (Tree.n (Workload.tree w0)) (Workload.num_objects w0);
    Array.iteri
      (fun e w ->
        for obj = 0 to Workload.num_objects w - 1 do
          List.iter
            (fun leaf ->
              let r = Workload.reads w ~obj leaf
              and wr = Workload.writes w ~obj leaf in
              if r > 0 || wr > 0 then
                Printf.bprintf buf "e %d %d %d %d %d\n" e obj leaf r wr)
            (Workload.requesting_leaves w ~obj)
        done)
      ts;
    Text.save ~path (Buffer.contents buf)
  end

(* The three header counts in file order, after the magic line; the
   tables are allocated once the last is read, and only if
   epochs x objects x nodes cells fit in an array. *)
let header = [| "epochs"; "nodes"; "objects" |]

type reading =
  | Magic
  | Header of int list  (* the counts read so far, newest first *)
  | Cells of Workload.t array * (int * int, int) Hashtbl.t array

let header_count ~tree got v =
  let n = Tree.n tree and max = Sys.max_array_length in
  match v :: got with
  | [ nodes; _ ] when nodes <> n ->
    Error (Printf.sprintf "file recorded over %d nodes, tree has %d" nodes n)
  | ([ _ ] | [ _; _; _ ]) when v < 1 ->
    Error
      (Printf.sprintf "bad %s count %d (expected at least 1)"
         header.(List.length got) v)
  | [ objects; _; epochs ] when objects > max / n || epochs > max / (objects * n)
    ->
    Error
      (Printf.sprintf "%d epochs of %d objects over %d nodes exceed %d cells"
         epochs objects n max)
  | [ objects; _; epochs ] ->
    Ok
      (Cells
         ( Array.init epochs (fun _ -> Workload.empty tree ~objects),
           Array.init epochs (fun _ -> Hashtbl.create 16) ))
  | got -> Ok (Header got)

let load_tables ~tree path =
  let ( let* ) = Result.bind in
  let state = ref Magic in
  Text.load ~path (fun text ->
      let* () =
        Text.iter_lines text (fun line word args ->
            match (!state, word, args) with
            | Magic, "hbn-serve-tables", [ "1" ] -> Ok (state := Header [])
            | Magic, _, _ -> Error "not an hbn-serve-tables file"
            | Header got, w, [ v ] when w = header.(List.length got) ->
              let* v = Text.count w v in
              let* next = header_count ~tree got v in
              Ok (state := next)
            | Header got, _, _ ->
              Error (Printf.sprintf "expected \"%s N\"" header.(List.length got))
            | Cells (ws, first), "e", [ e; obj; leaf; r; wr ] ->
              let* e = Text.int e in
              let* obj = Text.int obj in
              let* node = Text.int leaf in
              let* reads = Text.int r in
              let* writes = Text.int wr in
              if e < 0 || e >= Array.length ws then
                Error (Printf.sprintf "epoch %d out of range" e)
              else
                Hbn_workload.Workload_io.set_rate ws.(e) first.(e) ~line ~obj
                  ~node ~reads ~writes
            | Cells _, _, _ ->
              Error "expected \"e EPOCH OBJECT LEAF READS WRITES\"")
      in
      let eof = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 text in
      match !state with
      | Cells (ws, _) -> Ok ws
      | Header got ->
        Text.line_error eof
          (Printf.sprintf "truncated header (expected \"%s N\")"
             header.(List.length got))
      | Magic -> Text.line_error eof "empty file")
