type t = {
  (* One lock serializes every registry operation: updates arrive from
     all domains when the pipeline runs with [--jobs > 1], and Hashtbl is
     not domain-safe. Updates are rare relative to per-object work, so a
     plain mutex (no sharding) is enough. *)
  mutex : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); counters = Hashtbl.create 16 }

let global = create ()

let locked m f =
  Mutex.lock m.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.mutex) f

let incr ?(by = 1) m name =
  locked m @@ fun () ->
  match Hashtbl.find_opt m.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add m.counters name (ref by)

let counters m =
  locked m @@ fun () ->
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) m.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_value m name =
  locked m @@ fun () ->
  match Hashtbl.find_opt m.counters name with Some r -> !r | None -> 0

let reset m = locked m @@ fun () -> Hashtbl.reset m.counters

let emit m (sink : Sink.t) =
  List.iter
    (fun (name, value) ->
      sink.Sink.emit
        {
          Sink.name;
          id = 0;
          parent = 0;
          payload = Sink.Counter { value };
          attrs = [];
        })
    (counters m)
