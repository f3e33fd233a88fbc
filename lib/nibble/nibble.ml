module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type copy_set = {
  obj : int;
  nodes : int list;
  gravity : int;
}

(* Center-of-gravity search shared by the public entry point and the flat
   hot path: [acc] holds the canonical subtree sums of the weights,
   [total] their sum. Removing v leaves the children subtrees and the
   rest of the tree; v is a center of gravity iff the heaviest such
   component carries at most half the total weight. *)
let gravity_of_sums r ~acc ~total n =
  let heaviest v =
    let above = total - acc.(v) in
    Array.fold_left (fun m c -> max m acc.(c)) above r.Tree.children.(v)
  in
  let rec search v =
    if v >= n then
      invalid_arg "Nibble.gravity_center: no center found (impossible)"
    else if 2 * heaviest v <= total then v
    else search (v + 1)
  in
  search 0

let gravity_center t ~weights =
  let r = Tree.rooting t in
  let total = Array.fold_left ( + ) 0 weights in
  let sums = Tree.subtree_sums r weights in
  gravity_of_sums r ~acc:sums ~total (Tree.n t)

type group = { leaf : int; reads : int; writes : int }

let group_weight g = g.reads + g.writes

let place ?scratch w ~obj =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let wf = Workload.flat w in
  let total = Workload.Flat.total_weight wf ~obj in
  if total = 0 then { obj; nodes = []; gravity = 0 }
  else begin
    let scratch =
      match scratch with Some s -> s | None -> Flat.Scratch.create fl
    in
    (* Weight sums over the canonical rooting locate the gravity center
       without materializing a per-object weight vector. *)
    Flat.subtree_sums_into fl scratch ~src:wf.Workload.Flat.weights
      ~src_off:(Workload.Flat.row_base wf ~obj);
    let acc = scratch.Flat.Scratch.acc in
    let r = fl.Flat.r in
    let gravity = gravity_of_sums r ~acc ~total fl.Flat.n in
    let kappa = Workload.Flat.kappa wf ~obj in
    (* The nibble rule reads subtree weights in the tree rooted at the
       gravity center. Only the center's canonical ancestors see their
       subtree flip: an ancestor keeps everything but the canonical
       subtree of its child towards the center. One walk up the center's
       root path marks the ancestors (stamps) and records that child
       ([queue]); every other node keeps its canonical subtree sum. *)
    scratch.Flat.Scratch.stamp <- scratch.Flat.Scratch.stamp + 1;
    let stamp = scratch.Flat.Scratch.stamp in
    let ancestor = scratch.Flat.Scratch.nstamp in
    let toward = scratch.Flat.Scratch.queue in
    let v = ref gravity in
    while !v <> r.Tree.root do
      let p = r.Tree.parent.(!v) in
      ancestor.(p) <- stamp;
      toward.(p) <- !v;
      v := p
    done;
    let weight_below v =
      if ancestor.(v) = stamp then total - acc.(toward.(v)) else acc.(v)
    in
    let nodes = ref [] in
    for v = fl.Flat.n - 1 downto 0 do
      if v = gravity || weight_below v > kappa then nodes := v :: !nodes
    done;
    { obj; nodes = !nodes; gravity }
  end

let place_all w =
  let scratch = Flat.Scratch.create (Flat.of_tree (Workload.tree w)) in
  Array.init (Workload.num_objects w) (fun obj -> place ~scratch w ~obj)

let placement w =
  let sets = place_all w in
  let copies = Array.map (fun cs -> cs.nodes) sets in
  Placement.nearest w ~copies

let edge_loads w = Placement.edge_loads w (placement w)

(* A leaf's server is the first copy on its path to the gravity center.
   T(x) is connected, so it lies in the canonical subtree of its
   shallowest node [top], where the center's ancestors all hold copies:
   a walk up canonical parents meets the server before the path turns
   down, or reaches the root having started outside top's subtree,
   whose paths enter T(x) at [top]. The first walk through a non-copy
   node memoizes its server (stamp in [nstamp], slot in [acc]). *)
let iter_servers scratch w cs nodes f =
  let r = (Flat.of_tree (Workload.tree w)).Flat.r in
  let parent = r.Tree.parent and depth = r.Tree.depth in
  let top = ref 0 in
  for i = 1 to Array.length nodes - 1 do
    if depth.(nodes.(i)) < depth.(nodes.(!top)) then top := i
  done;
  let top = !top in
  scratch.Flat.Scratch.stamp <- scratch.Flat.Scratch.stamp + 1;
  let stamp = scratch.Flat.Scratch.stamp in
  let nstamp = scratch.Flat.Scratch.nstamp and memo = scratch.Flat.Scratch.acc in
  let rec server v =
    let i = Flat.Scratch.find scratch nodes v in
    if i >= 0 then i
    else if nstamp.(v) = stamp then memo.(v)
    else if v = r.Tree.root then top
    else server parent.(v)
  in
  if nodes <> [||] then
    Workload.Flat.iter_requesting (Workload.flat w) ~obj:cs.obj (fun leaf ->
        let i = server leaf in
        let v = ref leaf in
        while Flat.Scratch.find scratch nodes !v < 0 && nstamp.(!v) <> stamp do
          nstamp.(!v) <- stamp;
          memo.(!v) <- i;
          if !v <> r.Tree.root then v := parent.(!v)
        done;
        f leaf i)

let served_groups ?scratch w cs =
  let fl = Flat.of_tree (Workload.tree w) in
  let scratch =
    match scratch with Some s -> s | None -> Flat.Scratch.create fl
  in
  let nodes = Array.of_list cs.nodes in
  Flat.Scratch.index scratch nodes;
  let out = Array.make (Array.length nodes) [] in
  iter_servers scratch w cs nodes (fun leaf i ->
      let g =
        {
          leaf;
          reads = Workload.reads w ~obj:cs.obj leaf;
          writes = Workload.writes w ~obj:cs.obj leaf;
        }
      in
      out.(i) <- g :: out.(i));
  out

let is_connected tree nodes =
  match nodes with
  | [] -> true
  | first :: _ ->
    let in_set = Array.make (Tree.n tree) false in
    List.iter (fun v -> in_set.(v) <- true) nodes;
    let seen = Array.make (Tree.n tree) false in
    let rec dfs v =
      seen.(v) <- true;
      Array.iter
        (fun (u, _) -> if in_set.(u) && not seen.(u) then dfs u)
        (Tree.neighbors tree v)
    in
    dfs first;
    List.for_all (fun v -> seen.(v)) nodes
