(* Per-edge load attribution. Cells live in one hash table per edge keyed
   by (object, component). Tables are built in one shot from positive
   contributions, so every cell is nonzero. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads

type t = {
  tree : Tree.t;
  cells : (int, int ref) Hashtbl.t array;
      (* index = edge; key = object * 3 + component rank; value = running
         sum. Packing the pair into an immediate int keeps [record] — the
         hottest call — free of tuple allocation and structural hashing. *)
  totals : int array;  (* index = edge; sum of the edge's cells *)
}

type contribution = {
  obj : int;
  component : Placement.component;
  amount : int;
}

let component_rank = function
  | Placement.Read_path -> 0
  | Placement.Write_path -> 1
  | Placement.Write_steiner -> 2

let component_of_rank = function
  | 0 -> Placement.Read_path
  | 1 -> Placement.Write_path
  | _ -> Placement.Write_steiner

let cell_key ~obj ~component = (obj * 3) + component_rank component

let create tree =
  {
    tree;
    cells = Array.init (Tree.num_edges tree) (fun _ -> Hashtbl.create 8);
    totals = Array.make (Tree.num_edges tree) 0;
  }

let record t ~obj ~component ~edge ~amount =
  if amount <> 0 then begin
    t.totals.(edge) <- t.totals.(edge) + amount;
    let tbl = t.cells.(edge) in
    let key = cell_key ~obj ~component in
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r + amount
    | None -> Hashtbl.add tbl key (ref amount)
  end

let of_placement w p =
  let t = create (Workload.tree w) in
  let fl = Flat.of_tree t.tree in
  let scratch = Flat.Scratch.create fl in
  Array.iteri
    (fun obj op ->
      Placement.iter_object_load_components_scratch fl scratch op
        (fun edge component amount -> record t ~obj ~component ~edge ~amount))
    p;
  t

let of_loads eng =
  let w = Loads.workload eng in
  let t = create (Workload.tree w) in
  let fl = Flat.of_tree t.tree in
  let scratch = Flat.Scratch.create fl in
  let wf = Workload.flat w in
  for obj = 0 to Workload.num_objects w - 1 do
    if Loads.num_copies eng ~obj > 0 then begin
      Workload.Flat.iter_requesting wf ~obj (fun leaf ->
          match Loads.server eng ~obj leaf with
          | None -> ()
          | Some server ->
            if leaf <> server then begin
              let rd = Workload.reads w ~obj leaf in
              let wr = Workload.writes w ~obj leaf in
              Flat.iter_path fl scratch leaf server (fun edge ->
                  record t ~obj ~component:Placement.Read_path ~edge ~amount:rd;
                  record t ~obj ~component:Placement.Write_path ~edge ~amount:wr)
            end);
      let kappa = Workload.Flat.kappa wf ~obj in
      if kappa > 0 then
        Flat.iter_steiner fl scratch
          ~nodes:(fun mark -> List.iter mark (Loads.copies eng ~obj))
          (fun edge ->
            record t ~obj ~component:Placement.Write_steiner ~edge ~amount:kappa)
    end
  done;
  t

let attach = of_loads

let tree t = t.tree

let edge_total t ~edge = t.totals.(edge)

let totals t = Array.copy t.totals

let compare_contribution a b =
  if a.amount <> b.amount then compare b.amount a.amount
  else if a.obj <> b.obj then compare a.obj b.obj
  else compare (component_rank a.component) (component_rank b.component)

let contributions_of_table tbl =
  Hashtbl.fold
    (fun key r acc ->
      { obj = key / 3; component = component_of_rank (key mod 3); amount = !r }
      :: acc)
    tbl []
  |> List.sort compare_contribution

let edge_contributions t ~edge = contributions_of_table t.cells.(edge)

let incident_edges t bus =
  Array.to_list (Array.map snd (Tree.neighbors t.tree bus))

let bus_total2 t ~bus =
  if Tree.is_leaf t.tree bus then
    invalid_arg "Attribution.bus_total2: not a bus";
  List.fold_left (fun s e -> s + t.totals.(e)) 0 (incident_edges t bus)

let bus_contributions t ~bus =
  if Tree.is_leaf t.tree bus then
    invalid_arg "Attribution.bus_contributions: not a bus";
  let merged = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.iter
        (fun key r ->
          match Hashtbl.find_opt merged key with
          | Some m -> m := !m + !r
          | None -> Hashtbl.add merged key (ref !r))
        t.cells.(e))
    (incident_edges t bus);
  contributions_of_table merged

type site = [ `Edge of int | `Bus of int ]

(* The same float expressions as Placement.congestion_of_edge_loads, so
   the maximum over sites is bit-identical to the evaluator's value. *)
let site_relative t = function
  | `Edge e ->
    float_of_int t.totals.(e) /. float_of_int (Tree.edge_bandwidth t.tree e)
  | `Bus b ->
    float_of_int (bus_total2 t ~bus:b)
    /. (2. *. float_of_int (Tree.bus_bandwidth t.tree b))

let all_sites t =
  List.init (Array.length t.totals) (fun e -> `Edge e)
  @ List.map (fun b -> `Bus b) (Tree.buses t.tree)

let hotspots t ~k =
  (* The site list is already in the evaluator's scan order (edges by id,
     then buses by id); a stable sort on relative load alone therefore
     breaks ties exactly like its strict-maximum argmax. *)
  let rated = List.map (fun s -> (s, site_relative t s)) (all_sites t) in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) rated in
  List.filteri (fun i _ -> i < k) sorted

let congestion_value t =
  match hotspots t ~k:1 with [] -> 0. | (_, rel) :: _ -> rel

let canonical_cells tbl =
  Hashtbl.fold (fun key r acc -> ((key / 3, key mod 3), !r) :: acc) tbl []
  |> List.sort compare

let equal a b =
  Array.length a.totals = Array.length b.totals
  && a.totals = b.totals
  &&
  let ok = ref true in
  Array.iteri
    (fun e tbl ->
      if !ok && canonical_cells tbl <> canonical_cells b.cells.(e) then
        ok := false)
    a.cells;
  !ok

let json_contributions buf contribs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i { obj; component; amount } ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|{"obj":%d,"component":"%s","amount":%d}|} obj
           (Placement.component_name component)
           amount))
    contribs;
  Buffer.add_char buf ']'

let to_json ?k t =
  let k =
    match k with
    | Some k -> k
    | None -> Array.length t.totals + List.length (Tree.buses t.tree)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf {|{"schema":"hbn.explain/v1","congestion":|};
  Json.float_to_string buf (congestion_value t);
  Buffer.add_string buf {|,"sites":[|};
  List.iteri
    (fun i (site, rel) ->
      if i > 0 then Buffer.add_char buf ',';
      (match site with
      | `Edge e ->
        Buffer.add_string buf
          (Printf.sprintf {|{"site":"edge","id":%d,"load":%d,"bandwidth":%d|} e
             t.totals.(e)
             (Tree.edge_bandwidth t.tree e))
      | `Bus b ->
        Buffer.add_string buf
          (Printf.sprintf {|{"site":"bus","id":%d,"load2":%d,"bandwidth":%d|} b
             (bus_total2 t ~bus:b)
             (Tree.bus_bandwidth t.tree b)));
      Buffer.add_string buf {|,"relative":|};
      Json.float_to_string buf rel;
      Buffer.add_string buf {|,"contributions":|};
      json_contributions buf
        (match site with
        | `Edge e -> edge_contributions t ~edge:e
        | `Bus b -> bus_contributions t ~bus:b);
      Buffer.add_char buf '}')
    (hotspots t ~k);
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Gray (#cccccc, cold) to red (#ff0000, at the congestion maximum). *)
let heat_color ratio =
  let ratio = if ratio < 0. then 0. else if ratio > 1. then 1. else ratio in
  let r = 204 + int_of_float (ratio *. 51.) in
  let gb = 204 - int_of_float (ratio *. 204.) in
  Printf.sprintf "#%02x%02x%02x" r gb gb

let to_dot t =
  let top = congestion_value t in
  let ratio_of rel = if top > 0. then rel /. top else 0. in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph hbn_attribution {\n";
  for v = 0 to Tree.n t.tree - 1 do
    if Tree.is_leaf t.tree v then
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"P%d\"];\n" v v)
    else
      Buffer.add_string buf
        (Printf.sprintf
           "  n%d [shape=box,style=filled,fillcolor=\"%s\",label=\"bus %d\"];\n"
           v
           (heat_color (ratio_of (site_relative t (`Bus v))))
           v)
  done;
  for e = 0 to Array.length t.totals - 1 do
    let u, v = Tree.edge_endpoints t.tree e in
    let ratio = ratio_of (site_relative t (`Edge e)) in
    Buffer.add_string buf
      (Printf.sprintf
         "  n%d -- n%d [label=\"%d\",color=\"%s\",penwidth=%.2f];\n" u v
         t.totals.(e) (heat_color ratio)
         (1. +. (3. *. ratio)))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
