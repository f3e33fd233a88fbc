(* Bench-side instrumentation. Every call the benchmark makes into a
   library layer goes through [run], which wraps it in an Hbn_obs.Trace
   span named after the layer (a single branch while no sink is
   installed, so untraced runs pay nothing measurable) and, while
   [count_alloc] is set, records the call's allocation. The program's own
   spans and gauges nest underneath. *)

module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

let count_alloc = ref false

(* name -> (minor words, major words) per call, newest first *)
let allocs : (string, (float * float) list) Hashtbl.t = Hashtbl.create 16

(* Gc.minor_words is exact at any moment; the quick_stat minor count only
   advances at minor collections. *)
let alloc_now () = (Gc.minor_words (), (Gc.quick_stat ()).major_words)

let run name f =
  let sp = Trace.span name in
  Fun.protect ~finally:(fun () -> Trace.finish sp) @@ fun () ->
  if !count_alloc then begin
    let minor0, major0 = alloc_now () in
    let r = f () in
    let minor1, major1 = alloc_now () in
    let prev = Option.value ~default:[] (Hashtbl.find_opt allocs name) in
    Hashtbl.replace allocs name ((minor1 -. minor0, major1 -. major0) :: prev);
    r
  end
  else f ()

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* -- statistics ---------------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so the spreads printed here match the
   ones an outside script computes from the same samples. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  match Array.length a with
  | 0 -> (nan, nan)
  | 1 -> (a.(0), a.(0))
  | ld ->
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* -- reading the traced run's buffer ------------------------------------- *)

let events : Sink.event list ref = ref []

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Durations (ms) of every closed span with this name, in emission order. *)
let span_durations name =
  List.filter_map
    (fun (e : Sink.event) ->
      match e.payload with
      | Sink.Span_end { duration_ns } when e.name = name ->
        Some (ms_of_ns duration_ns)
      | _ -> None)
    !events

let span_ms name = median (span_durations name)

(* Per call of span [name]: its duration minus that of its direct
   children named in [children] (ms). *)
let span_rest_ms name ~children =
  let inner = Hashtbl.create 16 in
  List.iter
    (fun (e : Sink.event) ->
      match e.payload with
      | Sink.Span_end { duration_ns } when List.mem e.name children ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt inner e.parent) in
        Hashtbl.replace inner e.parent (prev +. ms_of_ns duration_ns)
      | _ -> ())
    !events;
  median
    (List.filter_map
       (fun (e : Sink.event) ->
         match e.payload with
         | Sink.Span_end { duration_ns } when e.name = name ->
           Some
             (ms_of_ns duration_ns
             -. Option.value ~default:0. (Hashtbl.find_opt inner e.id))
         | _ -> None)
       !events)

let gauge_values name =
  List.filter_map
    (fun (e : Sink.event) ->
      match e.payload with
      | Sink.Gauge { value } when e.name = name -> Some value
      | _ -> None)
    !events

(* Median allocation per call, in millions of words. *)
let minor_mw name =
  median
    (List.map (fun (m, _) -> m /. 1e6)
       (Option.value ~default:[] (Hashtbl.find_opt allocs name)))

let major_mw name =
  median
    (List.map (fun (_, m) -> m /. 1e6)
       (Option.value ~default:[] (Hashtbl.find_opt allocs name)))
