module Prng = Hbn_prng.Prng
module Sink = Hbn_obs.Sink
module Text = Hbn_util.Text

type kind =
  | Dropped of { edge : int; src : int; dst : int }
  | Crashed of { node : int }
  | Restarted of { node : int }
  | Cut of { edge : int }
  | Restored of { edge : int }

type event = { round : int; kind : kind }

type plan = {
  seed : int;
  drop : float;
  drop_until : int;
  crashes : (int * int * int) list;  (* (node, from, to) inclusive *)
  cuts : (int * int * int) list;  (* (edge, from, to) inclusive *)
}

let none = { seed = 0; drop = 0.; drop_until = 64; crashes = []; cuts = [] }

let check_window what (id, a, b) =
  if id < 0 then
    invalid_arg (Printf.sprintf "Faults.make: negative %s id %d" what id);
  if a < 1 || b < a then
    invalid_arg
      (Printf.sprintf "Faults.make: bad %s window %d-%d (rounds start at 1)"
         what a b)

let make ?(seed = 0) ?(drop = 0.) ?(drop_until = 64) ?(crashes = [])
    ?(cuts = []) () =
  if not (drop >= 0. && drop <= 1.) then
    invalid_arg "Faults.make: drop probability must be in [0, 1]";
  if drop_until < 0 then invalid_arg "Faults.make: negative drop horizon";
  List.iter (check_window "node") crashes;
  List.iter (check_window "edge") cuts;
  { seed; drop; drop_until; crashes; cuts }

let is_empty p = p.drop = 0. && p.crashes = [] && p.cuts = []

let seed p = p.seed

let quiet_after p =
  List.fold_left
    (fun acc (_, _, b) -> if b = max_int then max_int else max acc (b + 1))
    0 (p.crashes @ p.cuts)

(* -- queries ------------------------------------------------------------- *)

let drops p ~round ~edge ~src =
  p.drop > 0. && round <= p.drop_until
  && Prng.hash_float ~seed:p.seed [ round; edge; src ] < p.drop

let in_window round (_, a, b) = round >= a && round <= b

let node_down p ~round ~node =
  List.exists (fun ((n, _, _) as w) -> n = node && in_window round w) p.crashes

let edge_cut p ~round ~edge =
  List.exists (fun ((e, _, _) as w) -> e = edge && in_window round w) p.cuts

(* -- virtual-time shim ---------------------------------------------------- *)

let round_of_time time =
  if Float.is_nan time || time < 0. then
    invalid_arg "Faults.round_of_time: time must be a number >= 0";
  let c = Float.ceil time in
  if c >= float_of_int max_int then max_int else int_of_float c

(* -- spec grammar -------------------------------------------------------- *)

let parse_window clause s =
  (* "N:A-B" with B a round number or "inf". *)
  let fail () =
    Error
      (Printf.sprintf
         "bad %s clause %S (expected %s=ID:FROM-TO, TO a round or \"inf\")"
         clause s clause)
  in
  match String.split_on_char ':' s with
  | [ id; window ] -> (
    match (int_of_string_opt id, String.split_on_char '-' window) with
    | Some id, [ a; b ] -> (
      let b = if b = "inf" then Some max_int else int_of_string_opt b in
      match (int_of_string_opt a, b) with
      | Some a, Some b -> Ok (id, a, b)
      | _ -> fail ())
    | _ -> fail ())
  | _ -> fail ()

let of_spec ?(seed = 0) s =
  let ( let* ) = Result.bind in
  (* Empty clauses are dropped before the rest are numbered. *)
  let clauses =
    List.filter (fun c -> c.Text.text <> "") (Text.clauses s)
    |> List.mapi (fun i c -> { c with Text.index = i + 1 })
  in
  let* () =
    if clauses = [] then
      Error "empty fault spec (an explicitly fault-free plan is \"drop=0\")"
    else Ok ()
  in
  let window what v =
    let* ((id, a, b) as w) = parse_window what v in
    if id < 0 then Error (Printf.sprintf "negative %s id %d" what id)
    else if a < 1 || b < a then
      Error (Printf.sprintf "bad %s window %d-%d (rounds start at 1)" what a b)
    else Ok w
  in
  let* parsed =
    Text.map_clauses clauses (fun c ->
        match String.index_opt c.text '=' with
        | None -> Error (Printf.sprintf "clause %S has no '='" c.text)
        | Some i ->
          let key = String.sub c.text 0 i in
          let v = String.sub c.text (i + 1) (String.length c.text - i - 1) in
          let* item =
            match key with
            | "drop" -> (
              match float_of_string_opt v with
              | Some p when p >= 0. && p <= 1. -> Ok (`Drop p)
              | _ ->
                Error
                  (Printf.sprintf "bad drop probability %S (expected [0, 1])" v))
            | "until" -> (
              match int_of_string_opt v with
              | Some r when r >= 0 -> Ok (`Until r)
              | _ ->
                Error (Printf.sprintf "bad drop horizon %S (expected a round)" v))
            | "crash" ->
              let* w = window "crash" v in
              Ok (`Crash w)
            | "cut" ->
              let* w = window "cut" v in
              Ok (`Cut w)
            | _ -> Error (Printf.sprintf "unknown fault clause %S" key)
          in
          Ok (c, item))
  in
  let pick f = List.filter_map (fun (_, item) -> f item) parsed in
  let unique what f =
    match List.filter (fun (_, item) -> f item <> None) parsed with
    | [] -> Ok None
    | [ (_, item) ] -> Ok (f item)
    | _ :: (c, _) :: _ ->
      Text.clause_error c (Printf.sprintf "duplicate %s clause" what)
  in
  let* drop = unique "drop" (function `Drop p -> Some p | _ -> None) in
  let drop = Option.value drop ~default:0. in
  let* drop_until = unique "until" (function `Until r -> Some r | _ -> None) in
  let drop_until = Option.value drop_until ~default:64 in
  let crashes = pick (function `Crash w -> Some w | _ -> None) in
  let cuts = pick (function `Cut w -> Some w | _ -> None) in
  match make ~seed ~drop ~drop_until ~crashes ~cuts () with
  | p -> Ok p
  | exception Invalid_argument m -> Error m

let to_spec p =
  let window (id, a, b) =
    if b = max_int then Printf.sprintf "%d:%d-inf" id a
    else Printf.sprintf "%d:%d-%d" id a b
  in
  let clauses =
    (if p.drop > 0. then
       [ Printf.sprintf "drop=%g" p.drop; Printf.sprintf "until=%d" p.drop_until ]
     else [])
    @ List.map (fun w -> "crash=" ^ window w) p.crashes
    @ List.map (fun w -> "cut=" ^ window w) p.cuts
  in
  (* The empty plan still renders to something {!of_spec} accepts. *)
  if clauses = [] then "drop=0" else String.concat "," clauses

(* -- rendering ----------------------------------------------------------- *)

let sink_event ev =
  let fault, node, edge =
    match ev.kind with
    | Dropped { edge; src; dst = _ } -> ("dropped", src, edge)
    | Crashed { node } -> ("crashed", node, -1)
    | Restarted { node } -> ("restarted", node, -1)
    | Cut { edge } -> ("cut", -1, edge)
    | Restored { edge } -> ("restored", -1, edge)
  in
  {
    Sink.name = "runtime.fault";
    id = 0;
    parent = 0;
    payload = Sink.Fault { round = ev.round; fault; node; edge };
    attrs = [];
  }
