module Table = Hbn_util.Table
module Text = Hbn_util.Text

(* One reconstructed span. [dur_ns < 0] marks a span whose end never
   made it into the trace (crash mid-run, truncated file): it still
   anchors its children but contributes no durations. *)
type node = {
  id : int;
  name : string;
  parent : int;
  mutable dur_ns : int64;
  mutable children : int list;  (* ids, emission order *)
  domain : int;
  seq : int;  (* start order, for stable layout *)
}

type t = {
  evs : Sink.event list;
  nodes : (int, node) Hashtbl.t;
  roots : int list;  (* ids with parent 0, emission order *)
  unknown : int;  (* lines of unknown event kind skipped by [load] *)
}

let domain_of attrs =
  match List.assoc_opt "domain" attrs with Some (Sink.Int d) -> d | _ -> 0

let of_events evs =
  let nodes = Hashtbl.create 64 in
  let roots = ref [] in
  let seq = ref 0 in
  let ensure ~id ~name ~parent ~attrs =
    match Hashtbl.find_opt nodes id with
    | Some n -> n
    | None ->
      let n =
        {
          id;
          name;
          parent;
          dur_ns = -1L;
          children = [];
          domain = domain_of attrs;
          seq = !seq;
        }
      in
      incr seq;
      Hashtbl.add nodes id n;
      if parent = 0 then roots := id :: !roots
      else (
        match Hashtbl.find_opt nodes parent with
        | Some p -> p.children <- id :: p.children
        | None -> roots := id :: !roots);
      n
  in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Span_start ->
        ignore
          (ensure ~id:ev.Sink.id ~name:ev.Sink.name ~parent:ev.Sink.parent
             ~attrs:ev.Sink.attrs)
      | Sink.Span_end { duration_ns } ->
        (* The end event's [parent] is the enclosing span after the pop,
           i.e. the same parent the start recorded. *)
        let n =
          ensure ~id:ev.Sink.id ~name:ev.Sink.name ~parent:ev.Sink.parent
            ~attrs:ev.Sink.attrs
        in
        n.dur_ns <- duration_ns
      | _ -> ())
    evs;
  Hashtbl.iter (fun _ n -> n.children <- List.rev n.children) nodes;
  { evs; nodes; roots = List.rev !roots; unknown = 0 }

let events t = t.evs
let unknown_events t = t.unknown

(* A line [Sink.of_json] rejected is skippable only when it is valid
   JSON whose "ev" tag is a kind this binary does not know — a newer
   trace read by an older reader. A malformed known event still fails
   the load: that trace does not round-trip and hiding it would corrupt
   every rollup silently. *)
let unknown_kind line =
  match Json.parse line with
  | exception Json.Parse _ -> false
  | exception Failure _ -> false
  | j -> (
    match Json.member "ev" j with
    | Some (Json.Str ev) -> not (List.mem ev Sink.kinds)
    | _ -> false)

let load ~path =
  Text.load ~path @@ fun text ->
  let lines = String.split_on_char '\n' text in
  let rec parse acc skipped lineno = function
    | [] -> Ok (List.rev acc, skipped)
    | [ "" ] -> Ok (List.rev acc, skipped)  (* trailing newline *)
    | line :: rest -> (
      if String.trim line = "" then parse acc skipped (lineno + 1) rest
      else
        match Sink.of_json line with
        | Ok ev -> parse (ev :: acc) skipped (lineno + 1) rest
        | Error _ when unknown_kind line ->
          parse acc (skipped + 1) (lineno + 1) rest
        | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m))
  in
  Result.map
    (fun (evs, skipped) -> { (of_events evs) with unknown = skipped })
    (parse [] 0 1 lines)

(* -- phases ------------------------------------------------------------- *)

type phase = { name : string; calls : int; total_ns : int64; self_ns : int64 }

let span_self t n =
  if n.dur_ns < 0L then 0L
  else
    let child_time =
      List.fold_left
        (fun acc c ->
          let ch = Hashtbl.find t.nodes c in
          if ch.dur_ns > 0L then Int64.add acc ch.dur_ns else acc)
        0L n.children
    in
    Int64.max 0L (Int64.sub n.dur_ns child_time)

let phases t =
  let tbl : (string, int ref * int64 ref * int64 ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Hashtbl.iter
    (fun _ n ->
      if n.dur_ns >= 0L then begin
        let calls, total, self =
          match Hashtbl.find_opt tbl n.name with
          | Some cell -> cell
          | None ->
            let cell = (ref 0, ref 0L, ref 0L) in
            Hashtbl.add tbl n.name cell;
            cell
        in
        incr calls;
        total := Int64.add !total n.dur_ns;
        self := Int64.add !self (span_self t n)
      end)
    t.nodes;
  Hashtbl.fold
    (fun name (calls, total, self) acc ->
      { name; calls = !calls; total_ns = !total; self_ns = !self } :: acc)
    tbl []
  |> List.sort (fun a b ->
         if a.total_ns <> b.total_ns then compare b.total_ns a.total_ns
         else compare a.name b.name)

let critical_path t =
  let closed_dur n = if n.dur_ns >= 0L then n.dur_ns else -1L in
  let best ids =
    List.fold_left
      (fun acc id ->
        let n = Hashtbl.find t.nodes id in
        match acc with
        | Some m when closed_dur m >= closed_dur n -> acc
        | _ -> if closed_dur n >= 0L then Some n else acc)
      None ids
  in
  let rec descend acc (n : node) =
    let acc = (n.name, n.dur_ns) :: acc in
    match best n.children with
    | Some c -> descend acc c
    | None -> List.rev acc
  in
  match best t.roots with None -> [] | Some root -> descend [] root

(* -- metric rollups ----------------------------------------------------- *)

let counters t =
  (* Counter events are whole-run snapshots ([Metrics.emit]); the last
     one per name wins. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Counter { value } -> Hashtbl.replace tbl ev.Sink.name value
      | _ -> ())
    t.evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let gauges t =
  (* Gauges stream per sample: summarize count/min/max/last. *)
  let tbl : (string, int ref * float ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Gauge { value } -> (
        match Hashtbl.find_opt tbl ev.Sink.name with
        | Some (n, lo, hi, last) ->
          incr n;
          if value < !lo then lo := value;
          if value > !hi then hi := value;
          last := value
        | None ->
          Hashtbl.add tbl ev.Sink.name (ref 1, ref value, ref value, ref value))
      | _ -> ())
    t.evs;
  Hashtbl.fold
    (fun k (n, lo, hi, last) acc -> (k, (!n, !lo, !hi, !last)) :: acc)
    tbl []
  |> List.sort compare

let fault_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Fault { fault; _ } ->
        Hashtbl.replace tbl fault
          (1 + try Hashtbl.find tbl fault with Not_found -> 0)
      | _ -> ())
    t.evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* -- alerts ------------------------------------------------------------- *)

type alert_summary = {
  al_series : string;
  al_kind : string;
  al_count : int;
  al_first_round : int;
  al_last_round : int;
  al_max_magnitude : float;
}

let alert_events t =
  List.filter_map
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Alert { round; time; series; kind; magnitude } ->
        Some (round, time, series, kind, magnitude)
      | _ -> None)
    t.evs

let alert_summaries t =
  let tbl : (string * string, alert_summary ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (round, _time, series, kind, magnitude) ->
      match Hashtbl.find_opt tbl (series, kind) with
      | Some s ->
        let v = !s in
        s :=
          {
            v with
            al_count = v.al_count + 1;
            al_first_round = min v.al_first_round round;
            al_last_round = max v.al_last_round round;
            al_max_magnitude = Float.max v.al_max_magnitude magnitude;
          }
      | None ->
        Hashtbl.add tbl (series, kind)
          (ref
             {
               al_series = series;
               al_kind = kind;
               al_count = 1;
               al_first_round = round;
               al_last_round = round;
               al_max_magnitude = magnitude;
             }))
    (alert_events t);
  Hashtbl.fold (fun _ s acc -> !s :: acc) tbl []
  |> List.sort (fun a b -> compare (a.al_series, a.al_kind) (b.al_series, b.al_kind))

(* -- series ------------------------------------------------------------- *)

type series = {
  s_name : string;
  points : int;
  first_round : int;
  last_round : int;
  first_time : float;
  last_time : float;
  total : int;
  peak : int;
  peak_round : int;
}

let series_events t =
  List.filter_map
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Series { round; time; span; value; edge } ->
        Some (ev.Sink.name, round, time, span, value, edge)
      | _ -> None)
    t.evs

let series t =
  let tbl : (string, series ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, round, time, _span, value, _edge) ->
      match Hashtbl.find_opt tbl name with
      | Some s ->
        let v = !s in
        s :=
          {
            v with
            points = v.points + 1;
            first_round = min v.first_round round;
            last_round = max v.last_round round;
            first_time = Float.min v.first_time time;
            last_time = Float.max v.last_time time;
            total = v.total + value;
            peak = max v.peak value;
            peak_round = (if value > v.peak then round else v.peak_round);
          }
      | None ->
        Hashtbl.add tbl name
          (ref
             {
               s_name = name;
               points = 1;
               first_round = round;
               last_round = round;
               first_time = time;
               last_time = time;
               total = value;
               peak = value;
               peak_round = round;
             }))
    (series_events t);
  Hashtbl.fold (fun _ s acc -> !s :: acc) tbl []
  |> List.sort (fun a b -> compare a.s_name b.s_name)

let edge_series t =
  List.filter
    (fun (_, _, _, _, _, edge) -> edge >= 0)
    (series_events t)

let round_range t =
  match edge_series t with
  | [] -> None
  | (_, r, _, _, _, _) :: _ as es ->
    Some
      (List.fold_left
         (fun (lo, hi) (_, r, _, _, _, _) -> (min lo r, max hi r))
         (r, r) es)

(* [hottest_edges] splits the covered rounds [lo .. hi] into 8 equal
   buckets of this width (the last one may be short). *)
let bucket_width lo hi = max 1 ((hi - lo + 8) / 8)

(* The [(first_round, last_round)] intervals the [hottest_edges] buckets
   cover; empty when the trace has no per-edge series. *)
let bucket_bounds t =
  match round_range t with
  | None -> [||]
  | Some (lo, hi) ->
    let width = bucket_width lo hi in
    Array.init
      ((hi - lo) / width + 1)
      (fun i -> (lo + (i * width), min hi (lo + ((i + 1) * width) - 1)))

let hottest_edges ?(top = 5) t =
  match round_range t with
  | None -> [||]
  | Some (lo, hi) ->
    let width = bucket_width lo hi in
    let nbuckets = ((hi - lo) / width) + 1 in
    let totals = Hashtbl.create 16 in
    List.iter
      (fun (_, round, _, _, value, edge) ->
        let cells =
          match Hashtbl.find_opt totals edge with
          | Some c -> c
          | None ->
            let c = (ref 0, Array.make nbuckets 0) in
            Hashtbl.add totals edge c;
            c
        in
        let total, per_bucket = cells in
        total := !total + value;
        let b = (round - lo) / width in
        per_bucket.(b) <- per_bucket.(b) + value)
      (edge_series t);
    let all =
      Hashtbl.fold
        (fun edge (total, per_bucket) acc -> (edge, !total, per_bucket) :: acc)
        totals []
      |> List.sort (fun (e1, t1, _) (e2, t2, _) ->
             if t1 <> t2 then compare t2 t1 else compare e1 e2)
    in
    let rec take i = function
      | x :: rest when i < top -> x :: take (i + 1) rest
      | _ -> []
    in
    Array.of_list (take 0 all)

(* -- table renderer ----------------------------------------------------- *)

let ms ns = Int64.to_float ns /. 1e6

let to_table ?(top = 5) t =
  let buf = Buffer.create 1024 in
  let section title body =
    if body <> "" then begin
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      Buffer.add_string buf body;
      Buffer.add_char buf '\n'
    end
  in
  let table_str headers rows =
    if rows = [] then ""
    else begin
      let table = Table.create headers in
      List.iter (Table.add_row table) rows;
      Table.render table
    end
  in
  Buffer.add_string buf
    (if t.unknown = 0 then
       Printf.sprintf "trace: %d events\n\n" (List.length t.evs)
     else
       Printf.sprintf "trace: %d events (%d of unknown kind skipped)\n\n"
         (List.length t.evs) t.unknown);
  section "phases (wall time per span name)"
    (table_str
       [ "phase"; "calls"; "total ms"; "self ms"; "mean ms" ]
       (List.map
          (fun p ->
            [
              p.name;
              string_of_int p.calls;
              Table.fmt_float (ms p.total_ns);
              Table.fmt_float (ms p.self_ns);
              Table.fmt_float (ms p.total_ns /. float_of_int p.calls);
            ])
          (phases t)));
  (match critical_path t with
  | [] -> ()
  | ((_, root_ns) :: _) as path ->
    Buffer.add_string buf "critical path (heaviest nested chain)\n";
    List.iteri
      (fun depth (name, dur) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s  %s ms  (%.1f%% of root)\n"
             (String.make (2 * depth) ' ')
             name
             (Table.fmt_float (ms dur))
             (if root_ns > 0L then 100. *. ms dur /. ms root_ns else 100.)))
      path;
    Buffer.add_char buf '\n');
  section "counters"
    (table_str [ "counter"; "total" ]
       (List.map (fun (k, v) -> [ k; string_of_int v ]) (counters t)));
  section "gauges"
    (table_str
       [ "gauge"; "samples"; "min"; "max"; "last" ]
       (List.map
          (fun (k, (n, lo, hi, last)) ->
            [
              k;
              string_of_int n;
              Table.fmt_float lo;
              Table.fmt_float hi;
              Table.fmt_float last;
            ])
          (gauges t)));
  section "series (per-round telemetry)"
    (table_str
       [ "series"; "points"; "rounds"; "vtime"; "total"; "peak"; "peak@round" ]
       (List.map
          (fun s ->
            [
              s.s_name;
              string_of_int s.points;
              Printf.sprintf "%d-%d" s.first_round s.last_round;
              (if s.first_time = s.last_time then
                 Printf.sprintf "%g" s.first_time
               else Printf.sprintf "%g-%g" s.first_time s.last_time);
              string_of_int s.total;
              string_of_int s.peak;
              string_of_int s.peak_round;
            ])
          (series t)));
  section "alerts (change-point detections)"
    (table_str
       [ "series"; "kind"; "alerts"; "rounds"; "max magnitude" ]
       (List.map
          (fun a ->
            [
              a.al_series;
              a.al_kind;
              string_of_int a.al_count;
              (if a.al_first_round = a.al_last_round then
                 string_of_int a.al_first_round
               else Printf.sprintf "%d-%d" a.al_first_round a.al_last_round);
              Table.fmt_float a.al_max_magnitude;
            ])
          (alert_summaries t)));
  (let edges = hottest_edges ~top t in
   if Array.length edges > 0 then begin
     let bounds = bucket_bounds t in
     let headers =
       [ "edge"; "total" ]
       @ (Array.to_list bounds
         |> List.map (fun (lo, hi) ->
                if lo = hi then Printf.sprintf "r%d" lo
                else Printf.sprintf "r%d-%d" lo hi))
     in
     section "hottest edges over time (traversals per round bucket)"
       (table_str headers
          (Array.to_list edges
          |> List.map (fun (edge, total, per_bucket) ->
                 [ string_of_int edge; string_of_int total ]
                 @ List.map string_of_int (Array.to_list per_bucket))))
   end);
  section "faults"
    (table_str [ "fault"; "events" ]
       (List.map (fun (k, v) -> [ k; string_of_int v ]) (fault_counts t)));
  Buffer.contents buf

(* -- JSON renderer ------------------------------------------------------ *)

let to_json ?(top = 5) t =
  let buf = Buffer.create 1024 in
  let str s = Json.escape_string buf s in
  let fmt fmtstr = Printf.ksprintf (Buffer.add_string buf) fmtstr in
  fmt "{\"schema\":\"hbn.report/v1\",\"events\":%d,\"unknown_events\":%d"
    (List.length t.evs) t.unknown;
  fmt ",\"phases\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"name\":";
      str p.name;
      fmt ",\"calls\":%d,\"total_ns\":%Ld,\"self_ns\":%Ld}" p.calls p.total_ns
        p.self_ns)
    (phases t);
  fmt "],\"critical_path\":[";
  List.iteri
    (fun i (name, dur) ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"name\":";
      str name;
      fmt ",\"dur_ns\":%Ld}" dur)
    (critical_path t);
  fmt "],\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str k;
      fmt ":%d" v)
    (counters t);
  fmt "},\"gauges\":[";
  List.iteri
    (fun i (k, (n, lo, hi, last)) ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"name\":";
      str k;
      fmt ",\"samples\":%d,\"min\":" n;
      Json.float_to_string buf lo;
      fmt ",\"max\":";
      Json.float_to_string buf hi;
      fmt ",\"last\":";
      Json.float_to_string buf last;
      fmt "}")
    (gauges t);
  fmt "],\"series\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"name\":";
      str s.s_name;
      fmt ",\"points\":%d,\"first_round\":%d,\"last_round\":%d" s.points
        s.first_round s.last_round;
      fmt ",\"first_time\":";
      Json.float_to_string buf s.first_time;
      fmt ",\"last_time\":";
      Json.float_to_string buf s.last_time;
      fmt ",\"total\":%d,\"peak\":%d,\"peak_round\":%d}" s.total s.peak
        s.peak_round)
    (series t);
  fmt "],\"alerts\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"series\":";
      str a.al_series;
      fmt ",\"kind\":";
      str a.al_kind;
      fmt ",\"count\":%d,\"first_round\":%d,\"last_round\":%d" a.al_count
        a.al_first_round a.al_last_round;
      fmt ",\"max_magnitude\":";
      Json.float_to_string buf a.al_max_magnitude;
      fmt "}")
    (alert_summaries t);
  fmt "],\"hottest_edges\":[";
  Array.iteri
    (fun i (edge, total, per_bucket) ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"edge\":%d,\"total\":%d,\"buckets\":[%s]}" edge total
        (String.concat ","
           (List.map string_of_int (Array.to_list per_bucket))))
    (hottest_edges ~top t);
  fmt "],\"faults\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str k;
      fmt ":%d" v)
    (fault_counts t);
  fmt "}}";
  Buffer.contents buf

(* -- Chrome trace-event renderer ---------------------------------------- *)

(* Only durations survive into a trace, so the flame chart's time axis
   is reconstructed: roots are laid end to end, children sequentially
   from their parent's start. Widths are real; offsets are synthetic. *)
let to_chrome t =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit_obj f =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '{';
    f ();
    Buffer.add_char buf '}'
  in
  let fmt fmtstr = Printf.ksprintf (Buffer.add_string buf) fmtstr in
  let str s = Json.escape_string buf s in
  Buffer.add_string buf "{\"traceEvents\":[";
  emit_obj (fun () ->
      fmt
        "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"spans (reconstructed timeline)\"}");
  emit_obj (fun () ->
      fmt
        "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"telemetry (round axis)\"}");
  let us ns = Int64.to_float ns /. 1e3 in
  (* Depth-first layout; [at] is the span's synthetic start in µs. *)
  let rec lay at id =
    let n = Hashtbl.find t.nodes id in
    let dur = if n.dur_ns >= 0L then us n.dur_ns else 0. in
    if n.dur_ns >= 0L then
      emit_obj (fun () ->
          fmt "\"name\":";
          str n.name;
          fmt ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d" at
            dur n.domain);
    let _ =
      List.fold_left
        (fun cursor c ->
          let cn = Hashtbl.find t.nodes c in
          let cdur = if cn.dur_ns >= 0L then us cn.dur_ns else 0. in
          lay cursor c;
          cursor +. cdur)
        at n.children
    in
    ()
  in
  let _ =
    List.fold_left
      (fun cursor id ->
        let n = Hashtbl.find t.nodes id in
        lay cursor id;
        cursor +. (if n.dur_ns >= 0L then us n.dur_ns else 0.))
      0. t.roots
  in
  (* Series on the virtual-time axis: one counter track per series name
     (and per edge for per-edge series). [time] equals the round number
     for files from the synchronous engines, so their traces are
     unchanged; event-driven runs land at their engine clock. *)
  List.iter
    (fun (name, _round, time, _span, value, edge) ->
      emit_obj (fun () ->
          fmt "\"name\":";
          str (if edge >= 0 then Printf.sprintf "%s[%d]" name edge else name);
          fmt
            ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":2,\"tid\":0,\
             \"args\":{\"value\":%d}"
            time value))
    (series_events t);
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.payload with
      | Sink.Fault { round; fault; _ } ->
        emit_obj (fun () ->
            fmt "\"name\":";
            str ("fault." ^ fault);
            fmt ",\"ph\":\"i\",\"s\":\"g\",\"ts\":%d,\"pid\":2,\"tid\":0" round)
      | Sink.Alert { time; series; kind; _ } ->
        emit_obj (fun () ->
            fmt "\"name\":";
            str (Printf.sprintf "alert.%s[%s]" kind series);
            fmt ",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":2,\"tid\":0"
              time)
      | _ -> ())
    t.evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* -- trace diffing ------------------------------------------------------ *)

(* Per-edge series get their own key so a hotspot migrating between
   edges shows as two changed rows, not a wash. *)
let series_key name edge =
  if edge >= 0 then Printf.sprintf "%s[%d]" name edge else name

(* A fresh default monitor fed every series event of the trace in file
   order (per-round rates, per-edge series keyed "name[edge]") — the
   offline replay of what the engines compute online. *)
let drift_monitor t =
  let mon = Monitor.create () in
  List.iter
    (fun (name, round, time, span, value, edge) ->
      let span = max 1 span in
      Monitor.observe mon ~series:(series_key name edge) ~round ~vtime:time
        ~span
        (float_of_int value /. float_of_int span))
    (series_events t);
  mon

type series_cmp = {
  c_name : string;
  base_points : int;
  cur_points : int;
  base_total : int;
  cur_total : int;
  base_peak : int;
  cur_peak : int;
  base_p50 : float;  (* per-round rate, P-square estimate *)
  cur_p50 : float;
  base_p95 : float;
  cur_p95 : float;
}

type diff = {
  d_base_events : int;
  d_cur_events : int;
  d_series : series_cmp list;  (* union of both traces, key order *)
  d_changed : int;
  d_base_alerts : Monitor.alert list;
  d_cur_alerts : Monitor.alert list;
  d_new_alerts : Monitor.alert list;
  d_gone_alerts : Monitor.alert list;
}

let cmp_changed c =
  c.base_points <> c.cur_points
  || c.base_total <> c.cur_total
  || c.base_peak <> c.cur_peak
  || c.base_p50 <> c.cur_p50
  || c.base_p95 <> c.cur_p95

(* (points, total, peak) per series key, straight from the events. *)
let key_stats t =
  let tbl : (string, (int * int * int) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, _round, _time, _span, value, edge) ->
      let key = series_key name edge in
      match Hashtbl.find_opt tbl key with
      | Some cell ->
        let pts, total, peak = !cell in
        cell := (pts + 1, total + value, max peak value)
      | None -> Hashtbl.add tbl key (ref (1, value, value)))
    (series_events t);
  tbl

let diff ~base ~cur =
  let base_mon = drift_monitor base and cur_mon = drift_monitor cur in
  let base_stats = key_stats base and cur_stats = key_stats cur in
  let keys =
    let seen = Hashtbl.create 16 in
    let add k acc = if Hashtbl.mem seen k then acc else (Hashtbl.add seen k (); k :: acc) in
    Hashtbl.fold (fun k _ acc -> add k acc) base_stats []
    |> fun acc -> Hashtbl.fold (fun k _ acc -> add k acc) cur_stats acc
    |> List.sort String.compare
  in
  let quantiles mon key =
    match Monitor.estimate mon ~series:key with
    | Some e -> (e.Monitor.e_p50, e.Monitor.e_p95)
    | None -> (0.0, 0.0)
  in
  let cmps =
    List.map
      (fun key ->
        let stats tbl =
          match Hashtbl.find_opt tbl key with
          | Some cell -> !cell
          | None -> (0, 0, 0)
        in
        let b_pts, b_total, b_peak = stats base_stats
        and c_pts, c_total, c_peak = stats cur_stats in
        let b_p50, b_p95 = quantiles base_mon key
        and c_p50, c_p95 = quantiles cur_mon key in
        {
          c_name = key;
          base_points = b_pts;
          cur_points = c_pts;
          base_total = b_total;
          cur_total = c_total;
          base_peak = b_peak;
          cur_peak = c_peak;
          base_p50 = b_p50;
          cur_p50 = c_p50;
          base_p95 = b_p95;
          cur_p95 = c_p95;
        })
      keys
  in
  let base_alerts = Monitor.alerts base_mon
  and cur_alerts = Monitor.alerts cur_mon in
  let signature a = (a.Monitor.a_series, a.Monitor.a_kind) in
  let only xs ys =
    List.filter (fun a -> not (List.exists (fun b -> signature b = signature a) ys)) xs
  in
  {
    d_base_events = List.length base.evs;
    d_cur_events = List.length cur.evs;
    d_series = cmps;
    d_changed = List.length (List.filter cmp_changed cmps);
    d_base_alerts = base_alerts;
    d_cur_alerts = cur_alerts;
    d_new_alerts = only cur_alerts base_alerts;
    d_gone_alerts = only base_alerts cur_alerts;
  }

let diff_clean d =
  d.d_changed = 0 && d.d_new_alerts = [] && d.d_gone_alerts = []

let diff_to_table d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "baseline: %d events   current: %d events\n\n"
       d.d_base_events d.d_cur_events);
  if d.d_series <> [] then begin
    Buffer.add_string buf
      "series comparison (totals absolute; p50/p95 per-round rates)\n";
    let table =
      Table.create
        [
          "series";
          "total";
          "-> total";
          "peak";
          "-> peak";
          "p50";
          "-> p50";
          "p95";
          "-> p95";
        ]
    in
    List.iter
      (fun c ->
        Table.add_row table
          [
            (c.c_name ^ if cmp_changed c then " *" else "");
            string_of_int c.base_total;
            string_of_int c.cur_total;
            string_of_int c.base_peak;
            string_of_int c.cur_peak;
            Table.fmt_float c.base_p50;
            Table.fmt_float c.cur_p50;
            Table.fmt_float c.base_p95;
            Table.fmt_float c.cur_p95;
          ])
      d.d_series;
    Buffer.add_string buf (Table.render table);
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf
    (Printf.sprintf "alerts: %d baseline, %d current\n"
       (List.length d.d_base_alerts)
       (List.length d.d_cur_alerts));
  let alert_block title alerts =
    if alerts <> [] then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      let table = Table.create [ "series"; "kind"; "round"; "magnitude" ] in
      List.iter
        (fun a ->
          Table.add_row table
            [
              a.Monitor.a_series;
              Monitor.kind_name a.Monitor.a_kind;
              string_of_int a.Monitor.a_round;
              Table.fmt_float a.Monitor.a_magnitude;
            ])
        alerts;
      Buffer.add_string buf (Table.render table)
    end
  in
  alert_block "new alerts (current only)" d.d_new_alerts;
  alert_block "resolved alerts (baseline only)" d.d_gone_alerts;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (if diff_clean d then "verdict: identical — every series and alert matches\n"
     else
       Printf.sprintf "verdict: %d series changed, %d new alerts, %d resolved\n"
         d.d_changed
         (List.length d.d_new_alerts)
         (List.length d.d_gone_alerts));
  Buffer.contents buf

let diff_to_json d =
  let buf = Buffer.create 1024 in
  let str s = Json.escape_string buf s in
  let fmt fmtstr = Printf.ksprintf (Buffer.add_string buf) fmtstr in
  let flt f = Json.float_to_string buf f in
  fmt "{\"schema\":\"hbn.diff/v1\",\"baseline_events\":%d,\"current_events\":%d"
    d.d_base_events d.d_cur_events;
  fmt ",\"changed_series\":%d,\"clean\":%b" d.d_changed (diff_clean d);
  fmt ",\"series\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      fmt "{\"name\":";
      str c.c_name;
      fmt ",\"changed\":%b" (cmp_changed c);
      fmt ",\"base\":{\"points\":%d,\"total\":%d,\"peak\":%d,\"p50\":"
        c.base_points c.base_total c.base_peak;
      flt c.base_p50;
      fmt ",\"p95\":";
      flt c.base_p95;
      fmt "},\"current\":{\"points\":%d,\"total\":%d,\"peak\":%d,\"p50\":"
        c.cur_points c.cur_total c.cur_peak;
      flt c.cur_p50;
      fmt ",\"p95\":";
      flt c.cur_p95;
      fmt "}}")
    d.d_series;
  let alert_array alerts =
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char buf ',';
        fmt "{\"series\":";
        str a.Monitor.a_series;
        fmt ",\"kind\":";
        str (Monitor.kind_name a.Monitor.a_kind);
        fmt ",\"round\":%d,\"magnitude\":" a.Monitor.a_round;
        flt a.Monitor.a_magnitude;
        fmt "}")
      alerts
  in
  fmt "],\"alerts\":{\"baseline\":%d,\"current\":%d,\"new\":["
    (List.length d.d_base_alerts)
    (List.length d.d_cur_alerts);
  alert_array d.d_new_alerts;
  fmt "],\"resolved\":[";
  alert_array d.d_gone_alerts;
  fmt "]}}";
  Buffer.contents buf
