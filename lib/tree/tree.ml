type kind = Processor | Bus

type rooted = {
  root : int;
  parent : int array;
  parent_edge : int array;
  children : int array array;
  depth : int array;
  preorder : int array;
}

(* Structure-of-arrays index over the canonical rooting, built once on
   first use: preorder positions, the Euler tour of the rooted tree and a
   sparse table of depth-minima over it (O(1) LCA). This is the backing
   store of [Hbn_tree.Flat]; the record is exposed so the flat kernels
   can read the arrays directly, but nothing outside [lib/tree] should
   construct or mutate one. *)
type flat_index = {
  pos : int array;  (* preorder position of each node *)
  first : int array;  (* first occurrence of each node in the Euler tour *)
  enode : int array;  (* Euler tour: node visited at each step, 2n-1 long *)
  edep : int array;  (* depth of [enode] at each step *)
  elog2 : int array;  (* floor(log2 i) for 1 <= i <= elen *)
  sparse : int array;  (* levels x elen argmin-by-depth table, flattened *)
  elen : int;
}

type t = {
  size : int;
  kinds : kind array;
  adj : (int * int) array array;
  edge_ends : (int * int) array;
  edge_bw : int array;
  bus_bw : int array; (* -1 on processors *)
  canonical : rooted;
  (* Cached node partitions: [leaves]/[buses] sit in hot loops (baselines,
     generators, congestion), so the lists are built once at [make] time. *)
  leaf_list : int list;
  bus_list : int list;
  leaf_arr : int array;
  bus_arr : int array;
  (* Built on first use. Writes of a fully-constructed record are atomic
     in OCaml, so a benign race between domains at most duplicates the
     construction work (same pattern as the workload's flat cache);
     sequential phases force it before fanning out. *)
  mutable flat : flat_index option;
}

let compute_rooting ~size ~adj root =
  let parent = Array.make size (-1) in
  let parent_edge = Array.make size (-1) in
  let depth = Array.make size 0 in
  let preorder = Array.make size root in
  let visited = Array.make size false in
  (* Iterative DFS producing a preorder where parents precede children. *)
  let stack = ref [ root ] in
  let pos = ref 0 in
  visited.(root) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      preorder.(!pos) <- v;
      incr pos;
      Array.iter
        (fun (u, e) ->
          if not visited.(u) then begin
            visited.(u) <- true;
            parent.(u) <- v;
            parent_edge.(u) <- e;
            depth.(u) <- depth.(v) + 1;
            stack := u :: !stack
          end)
        adj.(v)
  done;
  if !pos <> size then invalid_arg "Tree.make: edges do not connect all nodes";
  let child_count = Array.make size 0 in
  Array.iter
    (fun p -> if p >= 0 then child_count.(p) <- child_count.(p) + 1)
    parent;
  let children = Array.map (fun c -> Array.make c (-1)) child_count in
  let fill = Array.make size 0 in
  (* Follow preorder so children arrays are in a deterministic order. *)
  Array.iter
    (fun v ->
      let p = parent.(v) in
      if p >= 0 then begin
        children.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    preorder;
  { root; parent; parent_edge; children; depth; preorder }

let make ~kinds ~edges ~bus_bandwidth ?root () =
  let size = Array.length kinds in
  if size = 0 then invalid_arg "Tree.make: empty node set";
  let m = List.length edges in
  if m <> size - 1 then invalid_arg "Tree.make: a tree needs exactly n-1 edges";
  let edge_ends = Array.make (max m 1) (0, 0) in
  let edge_bw = Array.make (max m 1) 1 in
  let deg = Array.make size 0 in
  List.iteri
    (fun i (u, v, bw) ->
      if u < 0 || u >= size || v < 0 || v >= size || u = v then
        invalid_arg "Tree.make: bad edge endpoints";
      if bw < 1 then invalid_arg "Tree.make: bandwidths must be at least 1";
      edge_ends.(i) <- (u, v);
      edge_bw.(i) <- bw;
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.map (fun d -> Array.make d (-1, -1)) deg in
  let fill = Array.make size 0 in
  List.iteri
    (fun i (u, v, _) ->
      adj.(u).(fill.(u)) <- (v, i);
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- (u, i);
      fill.(v) <- fill.(v) + 1)
    edges;
  Array.iteri
    (fun v k ->
      match (k, deg.(v)) with
      | Processor, d when d > 1 ->
        invalid_arg "Tree.make: processors must be leaves"
      | Bus, d when d <= 1 && size > 1 ->
        invalid_arg "Tree.make: buses must be inner nodes"
      | (Processor | Bus), _ -> ())
    kinds;
  if size = 1 && kinds.(0) <> Processor then
    invalid_arg "Tree.make: a single-node network is one processor";
  let bus_bw =
    Array.mapi
      (fun v k ->
        match k with
        | Bus ->
          let bw = bus_bandwidth v in
          if bw < 1 then invalid_arg "Tree.make: bandwidths must be at least 1";
          bw
        | Processor -> -1)
      kinds
  in
  let root =
    match root with
    | Some r ->
      if r < 0 || r >= size then invalid_arg "Tree.make: root out of range";
      r
    | None ->
      let rec first_bus v = if v >= size then 0 else
          match kinds.(v) with Bus -> v | Processor -> first_bus (v + 1)
      in
      first_bus 0
  in
  let canonical = compute_rooting ~size ~adj root in
  let all = List.init size (fun i -> i) in
  let leaf_list = List.filter (fun v -> kinds.(v) = Processor) all in
  let bus_list = List.filter (fun v -> kinds.(v) = Bus) all in
  {
    size;
    kinds;
    adj;
    edge_ends;
    edge_bw;
    bus_bw;
    canonical;
    leaf_list;
    bus_list;
    leaf_arr = Array.of_list leaf_list;
    bus_arr = Array.of_list bus_list;
    flat = None;
  }

let n t = t.size

let num_edges t = t.size - 1

let kind t v = t.kinds.(v)

let is_leaf t v = t.kinds.(v) = Processor

let leaves t = t.leaf_list

let buses t = t.bus_list

let leaves_array t = t.leaf_arr

let buses_array t = t.bus_arr

let num_leaves t = Array.length t.leaf_arr

let edge_endpoints t e = t.edge_ends.(e)

let edge_bandwidth t e = t.edge_bw.(e)

let bus_bandwidth t v =
  match t.kinds.(v) with
  | Bus -> t.bus_bw.(v)
  | Processor -> invalid_arg "Tree.bus_bandwidth: node is a processor"

let neighbors t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.size - 1 do
    best := max !best (degree t v)
  done;
  !best

let rooting t = t.canonical

let height t =
  Array.fold_left max 0 t.canonical.depth

(* Euler tour of the canonical rooting plus a sparse table of depth
   minima: LCA(u, v) is the node of minimal depth between the first
   occurrences of u and v on the tour, found in O(1) by overlapping the
   two power-of-two windows covering the range. *)
let build_flat_index t =
  let r = t.canonical in
  let n = t.size in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) r.preorder;
  let elen = (2 * n) - 1 in
  let enode = Array.make elen r.root in
  let edep = Array.make elen 0 in
  let first = Array.make n (-1) in
  (* Iterative Euler tour: every edge is walked down and back up once, so
     the tour visits 2n-1 nodes. [child_ix] tracks, per node, how many of
     its children have been fully toured. *)
  let child_ix = Array.make n 0 in
  let step = ref 0 in
  let visit v =
    enode.(!step) <- v;
    edep.(!step) <- r.depth.(v);
    if first.(v) < 0 then first.(v) <- !step;
    incr step
  in
  let v = ref r.root in
  visit !v;
  while !step < elen do
    let cs = r.children.(!v) in
    if child_ix.(!v) < Array.length cs then begin
      let c = cs.(child_ix.(!v)) in
      child_ix.(!v) <- child_ix.(!v) + 1;
      v := c;
      visit !v
    end
    else begin
      v := r.parent.(!v);
      visit !v
    end
  done;
  let elog2 = Array.make (elen + 1) 0 in
  for i = 2 to elen do
    elog2.(i) <- elog2.(i / 2) + 1
  done;
  let levels = elog2.(elen) + 1 in
  let sparse = Array.make (levels * elen) 0 in
  for i = 0 to elen - 1 do
    sparse.(i) <- i
  done;
  for k = 1 to levels - 1 do
    let half = 1 lsl (k - 1) in
    let prev = (k - 1) * elen and cur = k * elen in
    for i = 0 to elen - 1 do
      if i + (1 lsl k) <= elen then begin
        let a = sparse.(prev + i) and b = sparse.(prev + i + half) in
        sparse.(cur + i) <- (if edep.(a) <= edep.(b) then a else b)
      end
      else sparse.(cur + i) <- sparse.(prev + i)
    done
  done;
  { pos; first; enode; edep; elog2; sparse; elen }

let flat_index t =
  match t.flat with
  | Some ix -> ix
  | None ->
    let ix = build_flat_index t in
    t.flat <- Some ix;
    ix

(* O(1) via the Euler-tour sparse table: the shallowest tour entry
   between the first occurrences of [u] and [v]. *)
let lca_flat ix u v =
  let i = ix.first.(u) and j = ix.first.(v) in
  let i, j = if i <= j then (i, j) else (j, i) in
  let k = ix.elog2.(j - i + 1) in
  let a = ix.sparse.((k * ix.elen) + i) in
  let b = ix.sparse.((k * ix.elen) + j - (1 lsl k) + 1) in
  ix.enode.(if ix.edep.(a) <= ix.edep.(b) then a else b)

let subtree_sums r w =
  let size = Array.length r.parent in
  let acc = Array.copy w in
  for i = size - 1 downto 1 do
    let v = r.preorder.(i) in
    let p = r.parent.(v) in
    acc.(p) <- acc.(p) + acc.(v)
  done;
  acc

let nodes_by_level_bottom_up r =
  let size = Array.length r.parent in
  let h = Array.fold_left max 0 r.depth in
  let levels = Array.make (h + 1) [] in
  (* Paper convention: root on level height(T); node at depth d on level
     height - d; index 0 is the deepest level. *)
  for v = size - 1 downto 0 do
    let l = h - r.depth.(v) in
    levels.(l) <- v :: levels.(l)
  done;
  levels

let validate_paper_assumptions t =
  let offending = ref None in
  for e = 0 to num_edges t - 1 do
    let u, v = t.edge_ends.(e) in
    if (is_leaf t u || is_leaf t v) && t.edge_bw.(e) <> 1 then
      offending := Some e
  done;
  match !offending with
  | None -> Ok ()
  | Some e ->
    Error
      (Printf.sprintf
         "edge %d touches a processor but has bandwidth %d (paper assumes 1)"
         e t.edge_bw.(e))

let pp ppf t =
  Format.fprintf ppf "@[<v>hierarchical bus network: %d nodes (%d processors, %d buses), height %d, degree %d@,"
    t.size (num_leaves t) (t.size - num_leaves t) (height t) (max_degree t);
  for e = 0 to num_edges t - 1 do
    let u, v = t.edge_ends.(e) in
    Format.fprintf ppf "  edge %d: %d -- %d (bw %d)@," e u v t.edge_bw.(e)
  done;
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph hbn {\n";
  for v = 0 to t.size - 1 do
    (match t.kinds.(v) with
     | Bus ->
       Buffer.add_string buf
         (Printf.sprintf "  n%d [shape=box,label=\"bus %d\\nbw %d\"];\n" v v
            t.bus_bw.(v))
     | Processor ->
       Buffer.add_string buf
         (Printf.sprintf "  n%d [shape=circle,label=\"P%d\"];\n" v v))
  done;
  for e = 0 to num_edges t - 1 do
    let u, v = t.edge_ends.(e) in
    Buffer.add_string buf
      (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v t.edge_bw.(e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
