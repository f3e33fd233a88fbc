type row = Cells of string list | Separator

type t = {
  header : string list;
  mutable rows : row list; (* reverse order *)
}

let create header = { header; rows = [] }

let add_row t cells =
  let n = List.length t.header and k = List.length cells in
  if k > n then invalid_arg "Table.add_row: too many cells";
  let padded =
    if k = n then cells else cells @ List.init (n - k) (fun _ -> "")
  in
  t.rows <- Cells padded :: t.rows

let add_sep t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.header;
  List.iter (function Cells c -> measure c | Separator -> ()) rows;
  (* The first column is left-aligned, every other one right-aligned. *)
  let pad i s =
    let missing = widths.(i) - String.length s in
    if missing <= 0 then s
    else if i = 0 then s ^ String.make missing ' '
    else String.make missing ' ' ^ s
  in
  let render_cells cells =
    let padded = List.mapi pad cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let body =
    List.map (function Cells c -> render_cells c | Separator -> rule) rows
  in
  String.concat "\n" ((rule :: render_cells t.header :: rule :: body) @ [ rule ])

let print t = print_endline (render t)

let fmt_float ?(digits = 3) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" digits x

let fmt_ratio num den =
  if den = 0. then if num = 0. then "-" else "inf"
  else fmt_float (num /. den)
