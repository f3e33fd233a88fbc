module Tree = Hbn_tree.Tree
module Text = Hbn_util.Text

(* Per-level (delay, bandwidth) pairs, root-down: index 0 describes the
   links incident to the root (level 1). Specs shorter than the tree are
   extended by repeating the last clause — the minissf netsim
   parameterization `L, N1 D1 B1 .. NL DL BL` with a defaulting tail. *)
type config = { levels : (float * float) array }

let v levels =
  if Array.length levels = 0 then invalid_arg "Link.v: no levels";
  Array.iter
    (fun (d, b) ->
      if Float.is_nan d || d < 0. || d = Float.infinity then
        invalid_arg "Link.v: delay must be finite and >= 0";
      if Float.is_nan b || b <= 0. then
        invalid_arg "Link.v: bandwidth must be > 0 (inf allowed)";
      if d = 0. && b = Float.infinity then
        invalid_arg
          "Link.v: zero delay with infinite bandwidth means zero transit time")
    levels;
  { levels = Array.copy levels }

let sync = { levels = [| (1., Float.infinity) |] }

let is_sync c = Array.for_all (fun lv -> lv = (1., Float.infinity)) c.levels

let num_levels c = Array.length c.levels

let clause c ~level =
  if level < 1 then invalid_arg "Link: levels start at 1";
  c.levels.(min (level - 1) (Array.length c.levels - 1))

let delay c ~level = fst (clause c ~level)

let bandwidth c ~level = snd (clause c ~level)

(* -- spec grammar -------------------------------------------------------- *)

(* "D1:B1,D2:B2,..." — delay, colon, bandwidth per level root-down;
   bandwidth may be "inf". Every clause must be non-empty. *)

let num_to_string x =
  if x = Float.infinity then "inf" else Printf.sprintf "%g" x

let to_spec c =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun (d, b) ->
            Printf.sprintf "%s:%s" (num_to_string d) (num_to_string b))
          c.levels))

let of_spec s =
  let ( let* ) = Result.bind in
  let parse_clause { Text.text = c; _ } =
    if c = "" then Error "empty clause (expected DELAY:BANDWIDTH)"
    else
      match String.index_opt c ':' with
      | None ->
        Error (Printf.sprintf "clause %S has no ':' (expected DELAY:BANDWIDTH)" c)
      | Some i ->
        let ds = String.sub c 0 i in
        let bs = String.sub c (i + 1) (String.length c - i - 1) in
        let* d =
          match float_of_string_opt ds with
          | Some d when d >= 0. && d < Float.infinity && not (Float.is_nan d)
            -> Ok d
          | _ ->
            Error
              (Printf.sprintf "bad delay %S (expected a finite number >= 0)" ds)
        in
        let* b =
          if bs = "inf" then Ok Float.infinity
          else
            match float_of_string_opt bs with
            | Some b when b > 0. && not (Float.is_nan b) -> Ok b
            | _ ->
              Error
                (Printf.sprintf
                   "bad bandwidth %S (expected a positive number or \"inf\")"
                   bs)
        in
        if d = 0. && b = Float.infinity then
          Error "zero delay with infinite bandwidth means zero transit time"
        else Ok (d, b)
  in
  (* [clauses] is never empty: [""] is one empty clause. *)
  let* levels = Text.map_clauses (Text.clauses s) parse_clause in
  Ok { levels = Array.of_list levels }

(* -- attached links ------------------------------------------------------ *)

(* A config bound to a concrete tree: per-edge level (depth of the
   deeper endpoint under the canonical rooting, so edges incident to the
   root are level 1) plus one busy-until clock per directed link for
   transmission serialization. *)
type t = {
  config : config;
  tree : Tree.t;
  edge_level : int array;
  free_at : float array;  (* busy-until, indexed 2*edge + direction *)
}

let attach config tree =
  let r = Tree.rooting tree in
  let m = Tree.num_edges tree in
  let edge_level =
    Array.init m (fun e ->
        let u, v = Tree.edge_endpoints tree e in
        max r.Tree.depth.(u) r.Tree.depth.(v))
  in
  { config; tree; edge_level; free_at = Array.make (2 * m) 0. }

let config t = t.config

let edge_level t e = t.edge_level.(e)

let xmit_time c ~level ~bytes =
  let b = bandwidth c ~level in
  if b = Float.infinity then 0. else float_of_int bytes /. b

let latency t ~edge ~bytes =
  let level = t.edge_level.(edge) in
  xmit_time t.config ~level ~bytes +. delay t.config ~level

let transmit t ~now ~edge ~src ~bytes =
  let u, v = Tree.edge_endpoints t.tree edge in
  let dir =
    if src = u then 0
    else if src = v then 1
    else
      invalid_arg
        (Printf.sprintf "Link.transmit: node %d is not an endpoint of edge %d"
           src edge)
  in
  let k = (2 * edge) + dir in
  let level = t.edge_level.(edge) in
  let start = Float.max now t.free_at.(k) in
  let finish = start +. xmit_time t.config ~level ~bytes in
  t.free_at.(k) <- finish;
  finish +. delay t.config ~level
