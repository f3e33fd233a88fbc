module Text = Hbn_util.Text

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# hierarchical bus network\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Tree.n t));
  for v = 0 to Tree.n t - 1 do
    match Tree.kind t v with
    | Tree.Bus ->
      Buffer.add_string buf (Printf.sprintf "bus %d %d\n" v (Tree.bus_bandwidth t v))
    | Tree.Processor -> Buffer.add_string buf (Printf.sprintf "proc %d\n" v)
  done;
  for e = 0 to Tree.num_edges t - 1 do
    let u, v = Tree.edge_endpoints t e in
    Buffer.add_string buf
      (Printf.sprintf "edge %d %d %d\n" u v (Tree.edge_bandwidth t e))
  done;
  Buffer.add_string buf
    (Printf.sprintf "root %d\n" (Tree.rooting t).Tree.root);
  Buffer.contents buf

type parse_state = {
  mutable nodes : int;
  mutable kinds : (int * Tree.kind * int) list; (* id, kind, bus bw *)
  mutable edges : (int * int * int) list;
  mutable root : int option;
}

let of_string s =
  let ( let* ) = Result.bind in
  let st = { nodes = -1; kinds = []; edges = []; root = None } in
  let* () =
    Text.iter_lines s (fun _ word args ->
        match (word, args) with
        | "nodes", [ n ] ->
          let* n = Text.count "nodes" n in
          if st.nodes >= 0 then Error "duplicate nodes declaration"
          else Ok (st.nodes <- n)
        | "bus", [ id; bw ] ->
          let* id = Text.int id in
          let* bw = Text.int bw in
          Ok (st.kinds <- (id, Tree.Bus, bw) :: st.kinds)
        | "proc", [ id ] ->
          let* id = Text.int id in
          Ok (st.kinds <- (id, Tree.Processor, 1) :: st.kinds)
        | "edge", [ u; v; bw ] ->
          let* u = Text.int u in
          let* v = Text.int v in
          let* bw = Text.int bw in
          Ok (st.edges <- (u, v, bw) :: st.edges)
        | "root", [ r ] ->
          let* r = Text.int r in
          Ok (st.root <- Some r)
        | w, _ -> Error (Printf.sprintf "unknown directive %S" w))
  in
  if st.nodes < 0 then Error "missing nodes declaration"
  else begin
    let kinds = Array.make st.nodes None and bus_bw = Array.make st.nodes 1 in
    let problem = ref None in
    List.iter
      (fun (id, kind, bw) ->
        if id < 0 || id >= st.nodes then
          problem := Some (Printf.sprintf "node id %d out of range" id)
        else begin
          if kinds.(id) <> None then
            problem := Some (Printf.sprintf "node %d declared twice" id);
          kinds.(id) <- Some kind;
          bus_bw.(id) <- bw
        end)
      st.kinds;
    match (!problem, Array.find_index Option.is_none kinds) with
    | Some msg, _ -> Error msg
    | None, Some i -> Error (Printf.sprintf "node %d undeclared" i)
    | None, None -> (
      match
        Tree.make ~kinds:(Array.map Option.get kinds) ~edges:(List.rev st.edges)
          ~bus_bandwidth:(fun v -> bus_bw.(v))
          ?root:st.root ()
      with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)
  end

let save t ~path = Text.save ~path (to_string t)

let load ~path = Text.load ~path of_string
