module Tree = Hbn_tree.Tree
module Text = Hbn_util.Text

let to_string w =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# workload\n";
  Buffer.add_string buf (Printf.sprintf "objects %d\n" (Workload.num_objects w));
  for obj = 0 to Workload.num_objects w - 1 do
    List.iter
      (fun v ->
        let r = Workload.reads w ~obj v and wr = Workload.writes w ~obj v in
        if r > 0 || wr > 0 then
          Buffer.add_string buf (Printf.sprintf "rate %d %d %d %d\n" obj v r wr))
      (Tree.leaves (Workload.tree w))
  done;
  Buffer.contents buf

(* A (object, node) pair may be declared once. Accumulating duplicates
   silently used to double rates on concatenated or hand-edited files;
   the error names both lines involved. *)
let set_rate w first ~line ~obj ~node ~reads ~writes =
  if obj < 0 || obj >= Workload.num_objects w then
    Error (Printf.sprintf "object %d out of range" obj)
  else if node < 0 || node >= Tree.n (Workload.tree w) then
    Error (Printf.sprintf "node %d out of range" node)
  else
    match Hashtbl.find_opt first (obj, node) with
    | Some l ->
      Error
        (Printf.sprintf
           "duplicate rate for object %d at node %d (first declared on line %d)"
           obj node l)
    | None -> (
      Hashtbl.add first (obj, node) line;
      match
        Workload.set_read w ~obj node reads;
        Workload.set_write w ~obj node writes
      with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg)

let of_string tree s =
  let ( let* ) = Result.bind in
  let objects = ref (-1) and rates = ref [] in
  let* () =
    Text.iter_lines s (fun line word args ->
        match (word, args) with
        | "objects", [ n ] ->
          let* n = Text.count "objects" n in
          if !objects >= 0 then Error "duplicate objects declaration"
          else Ok (objects := n)
        | "rate", [ obj; node; r; wr ] ->
          let* obj = Text.int obj in
          let* node = Text.int node in
          let* reads = Text.int r in
          let* writes = Text.int wr in
          Ok (rates := (line, obj, node, reads, writes) :: !rates)
        | w, _ -> Error (Printf.sprintf "unknown directive %S" w))
  in
  if !objects < 0 then Error "missing objects declaration"
  else
    (* Rates may precede the [objects] line, so they are checked here. *)
    let w = Workload.empty tree ~objects:!objects in
    let first = Hashtbl.create 64 in
    let failed (line, obj, node, reads, writes) =
      Result.fold ~ok:(fun () -> None) ~error:(fun m -> Some (line, m))
        (set_rate w first ~line ~obj ~node ~reads ~writes)
    in
    match List.find_map failed (List.rev !rates) with
    | None -> Ok w
    | Some (line, m) -> Text.line_error line m

let save w ~path = Text.save ~path (to_string w)

let load tree ~path = Text.load ~path (of_string tree)
