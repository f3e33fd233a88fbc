type value = Int of int | Float of float | Str of string | Bool of bool

type payload =
  | Span_start
  | Span_end of { duration_ns : int64 }
  | Point
  | Counter of { value : int }
  | Gauge of { value : float }
  | Attribution of { edge : int; obj : int; component : string; amount : int }
  | Fault of { round : int; fault : string; node : int; edge : int }
  | Series of {
      round : int;
      time : float;  (* virtual-time position; = round on the sync axis *)
      span : int;
      value : int;
      edge : int;
    }
  | Alert of {
      round : int;
      time : float;
      series : string;
      kind : string;
      magnitude : float;
    }

(* Every "ev" tag the codec understands, emission-name order. Report
   uses this to tell "newer trace, unknown kind" (skippable) from a
   malformed known event (hard error). *)
let kinds =
  [
    "span_start";
    "span_end";
    "point";
    "counter";
    "gauge";
    "attribution";
    "fault";
    "series";
    "alert";
  ]

type event = {
  name : string;
  id : int;
  parent : int;
  payload : payload;
  attrs : (string * value) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

(* -- JSON writing ------------------------------------------------------- *)

let escape_to = Json.escape_string

let float_to = Json.float_to_string

let value_to buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let attrs_to buf attrs =
  Buffer.add_string buf "\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape_to buf k;
      Buffer.add_char buf ':';
      value_to buf v)
    attrs;
  Buffer.add_char buf '}'

let to_json ev =
  let buf = Buffer.create 128 in
  let field k f =
    Buffer.add_char buf ',';
    Buffer.add_string buf "\"";
    Buffer.add_string buf k;
    Buffer.add_string buf "\":";
    f buf
  in
  Buffer.add_string buf "{\"ev\":";
  escape_to buf
    (match ev.payload with
    | Span_start -> "span_start"
    | Span_end _ -> "span_end"
    | Point -> "point"
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Attribution _ -> "attribution"
    | Fault _ -> "fault"
    | Series _ -> "series"
    | Alert _ -> "alert");
  field "name" (fun b -> escape_to b ev.name);
  field "id" (fun b -> Buffer.add_string b (string_of_int ev.id));
  field "parent" (fun b -> Buffer.add_string b (string_of_int ev.parent));
  (match ev.payload with
  | Span_start | Point -> ()
  | Span_end { duration_ns } ->
    field "dur_ns" (fun b -> Buffer.add_string b (Int64.to_string duration_ns))
  | Counter { value } ->
    field "value" (fun b -> Buffer.add_string b (string_of_int value))
  | Gauge { value } -> field "value" (fun b -> float_to b value)
  | Attribution { edge; obj; component; amount } ->
    field "edge" (fun b -> Buffer.add_string b (string_of_int edge));
    field "obj" (fun b -> Buffer.add_string b (string_of_int obj));
    field "component" (fun b -> escape_to b component);
    field "amount" (fun b -> Buffer.add_string b (string_of_int amount))
  | Fault { round; fault; node; edge } ->
    field "round" (fun b -> Buffer.add_string b (string_of_int round));
    field "fault" (fun b -> escape_to b fault);
    field "node" (fun b -> Buffer.add_string b (string_of_int node));
    field "edge" (fun b -> Buffer.add_string b (string_of_int edge))
  | Series { round; time; span; value; edge } ->
    field "round" (fun b -> Buffer.add_string b (string_of_int round));
    field "time" (fun b -> float_to b time);
    field "span" (fun b -> Buffer.add_string b (string_of_int span));
    field "value" (fun b -> Buffer.add_string b (string_of_int value));
    field "edge" (fun b -> Buffer.add_string b (string_of_int edge))
  | Alert { round; time; series; kind; magnitude } ->
    field "round" (fun b -> Buffer.add_string b (string_of_int round));
    field "time" (fun b -> float_to b time);
    field "series" (fun b -> escape_to b series);
    field "kind" (fun b -> escape_to b kind);
    field "magnitude" (fun b -> float_to b magnitude));
  Buffer.add_char buf ',';
  attrs_to buf ev.attrs;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* -- JSON reading ------------------------------------------------------- *)

let of_json line =
  match Json.parse line with
  | exception Json.Parse msg -> Error msg
  | exception Failure msg -> Error msg
  | Json.Obj _ as j ->
    let get k = Json.member k j in
    let str k =
      match get k with
      | Some (Json.Str s) -> s
      | _ -> raise (Json.Parse (Printf.sprintf "missing string field %S" k))
    in
    let int k =
      match get k with
      | Some (Json.Int i) -> i
      | _ -> raise (Json.Parse (Printf.sprintf "missing int field %S" k))
    in
    let num k =
      match get k with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | Some (Json.Str "nan") -> Float.nan
      | _ -> raise (Json.Parse (Printf.sprintf "missing number field %S" k))
    in
    let value_of = function
      | Json.Int i -> Int i
      | Json.Float f -> Float f
      | Json.Str "nan" -> Float Float.nan
      | Json.Str s -> Str s
      | Json.Bool b -> Bool b
      | Json.Null | Json.List _ | Json.Obj _ ->
        raise (Json.Parse "bad attribute value")
    in
    (try
       let payload =
         match str "ev" with
         | "span_start" -> Span_start
         | "span_end" -> Span_end { duration_ns = Int64.of_int (int "dur_ns") }
         | "point" -> Point
         | "counter" -> Counter { value = int "value" }
         | "gauge" -> Gauge { value = num "value" }
         | "attribution" ->
           Attribution
             {
               edge = int "edge";
               obj = int "obj";
               component = str "component";
               amount = int "amount";
             }
         | "fault" ->
           Fault
             {
               round = int "round";
               fault = str "fault";
               node = int "node";
               edge = int "edge";
             }
         | "series" ->
           let round = int "round" in
           Series
             {
               round;
               (* Files written before the virtual-time axis carry no
                  "time" field: their axis was the round number. *)
               time =
                 (match get "time" with
                 | None -> float_of_int round
                 | Some _ -> num "time");
               span = int "span";
               value = int "value";
               edge = int "edge";
             }
         | "alert" ->
           Alert
             {
               round = int "round";
               time = num "time";
               series = str "series";
               kind = str "kind";
               magnitude = num "magnitude";
             }
         | ev -> raise (Json.Parse (Printf.sprintf "unknown event kind %S" ev))
       in
       let attrs =
         match get "attrs" with
         | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, value_of v)) kvs
         | None -> []
         | Some _ -> raise (Json.Parse "attrs must be an object")
       in
       Ok { name = str "name"; id = int "id"; parent = int "parent"; payload; attrs }
     with Json.Parse msg -> Error msg)
  | _ -> Error "top level is not an object"

(* -- sinks -------------------------------------------------------------- *)

(* Each stateful sink owns a mutex: events arrive from every domain when
   the pipeline runs with [--jobs > 1], and neither channels, lists nor
   Hashtbl tolerate concurrent mutation. One whole-line write per lock
   hold also keeps JSONL records from interleaving. *)
let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let jsonl oc =
  let mutex = Mutex.create () in
  {
    emit =
      (fun ev ->
        let line = to_json ev in
        locked mutex @@ fun () ->
        output_string oc line;
        output_char oc '\n');
    flush = (fun () -> locked mutex @@ fun () -> flush oc);
  }

let memory () =
  let mutex = Mutex.create () in
  let events = ref [] in
  ( {
      emit = (fun ev -> locked mutex @@ fun () -> events := ev :: !events);
      flush = (fun () -> ());
    },
    fun () -> locked mutex @@ fun () -> List.rev !events )

let timings () =
  let mutex = Mutex.create () in
  let tbl : (string, int ref * int64 ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let emit ev =
    match ev.payload with
    | Span_end { duration_ns } ->
      (locked mutex @@ fun () ->
       match Hashtbl.find_opt tbl ev.name with
       | Some (calls, total) ->
         incr calls;
         total := Int64.add !total duration_ns
       | None ->
         Hashtbl.add tbl ev.name (ref 1, ref duration_ns);
         order := ev.name :: !order)
    | Span_start | Point | Counter _ | Gauge _ | Attribution _ | Fault _
    | Series _ | Alert _ ->
      ()
  in
  ( { emit; flush = (fun () -> ()) },
    fun () ->
      locked mutex @@ fun () ->
      List.rev_map
        (fun name ->
          let calls, total = Hashtbl.find tbl name in
          (name, !calls, !total))
        !order )

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }

let with_attrs extra inner =
  {
    emit =
      (fun ev ->
        inner.emit { ev with attrs = ev.attrs @ extra () });
    flush = inner.flush;
  }
