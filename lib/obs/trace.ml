type span = { id : int; name : string; start : int64 }

let none = { id = 0; name = ""; start = 0L }

(* The [enabled] fast path reads [sink] without the lock: installing a
   sink happens-before any instrumented work is fanned out (the CLI sets
   it up before the pipeline runs), so domains observe a stable value,
   and a stale [None] only skips an event — never corrupts state. All
   mutation of ids and the span stack goes through [mutex]: ids are
   allocated under the lock in call order, so single-emitter traces (the
   only kind the pipeline produces — pool tasks emit no spans) keep the
   byte-identical-run-to-run property, and concurrent emitters from
   [Hbn_exec] domains are merely serialized instead of racing. *)
type state = {
  mutable sink : Sink.t option;
  mutable next_id : int;
  mutable stack : int list;  (* open span ids, innermost first *)
}

let st = { sink = None; next_id = 1; stack = [] }

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let enabled () = match st.sink with None -> false | Some _ -> true

let set_sink sink =
  locked @@ fun () ->
  (match st.sink with Some s -> s.Sink.flush () | None -> ());
  st.sink <- sink;
  st.next_id <- 1;
  st.stack <- []

let with_sink sink f =
  let saved_sink, saved_id, saved_stack =
    locked @@ fun () ->
    let saved = (st.sink, st.next_id, st.stack) in
    st.sink <- Some sink;
    st.next_id <- 1;
    st.stack <- [];
    saved
  in
  Fun.protect
    ~finally:(fun () ->
      locked @@ fun () ->
      sink.Sink.flush ();
      st.sink <- saved_sink;
      st.next_id <- saved_id;
      st.stack <- saved_stack)
    f

let parent () = match st.stack with [] -> 0 | p :: _ -> p

let span ?(attrs = []) name =
  match st.sink with
  | None -> none
  | Some _ -> (
    let opened =
      locked @@ fun () ->
      match st.sink with
      | None -> None
      | Some sink ->
        let id = st.next_id in
        st.next_id <- id + 1;
        sink.Sink.emit
          { Sink.name; id; parent = parent (); payload = Sink.Span_start; attrs };
        st.stack <- id :: st.stack;
        Some id
    in
    match opened with
    | None -> none
    | Some id -> { id; name; start = Monotonic_clock.now () })

let finish ?(attrs = []) sp =
  if sp.id <> 0 then
    let duration_ns = Int64.sub (Monotonic_clock.now ()) sp.start in
    locked @@ fun () ->
    match st.sink with
    | None -> ()
    | Some sink ->
      (st.stack <-
        (match st.stack with
        | top :: rest when top = sp.id -> rest
        | stack -> List.filter (fun id -> id <> sp.id) stack));
      sink.Sink.emit
        {
          Sink.name = sp.name;
          id = sp.id;
          parent = parent ();
          payload = Sink.Span_end { duration_ns };
          attrs;
        }

let elapsed_ms sp =
  if sp.id = 0 then 0.
  else Int64.to_float (Int64.sub (Monotonic_clock.now ()) sp.start) /. 1e6

let emit ev =
  match st.sink with
  | None -> ()
  | Some _ -> (
    locked @@ fun () ->
    match st.sink with
    | None -> ()
    | Some sink ->
      let ev =
        if ev.Sink.parent = 0 then { ev with Sink.parent = parent () } else ev
      in
      sink.Sink.emit ev)

let event ?(attrs = []) name =
  match st.sink with
  | None -> ()
  | Some _ -> (
    locked @@ fun () ->
    match st.sink with
    | None -> ()
    | Some sink ->
      sink.Sink.emit
        { Sink.name; id = 0; parent = parent (); payload = Sink.Point; attrs })

let count ?(by = 1) name =
  match st.sink with
  | None -> ()
  | Some _ -> Metrics.incr ~by Metrics.global name

let gauge name value =
  match st.sink with
  | None -> ()
  | Some _ -> (
    locked @@ fun () ->
    match st.sink with
    | None -> ()
    | Some sink ->
      sink.Sink.emit
        {
          Sink.name;
          id = 0;
          parent = parent ();
          payload = Sink.Gauge { value };
          attrs = [];
        })

let flush () =
  locked @@ fun () ->
  match st.sink with Some s -> s.Sink.flush () | None -> ()
