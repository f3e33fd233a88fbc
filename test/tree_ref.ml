(* Reference oracles for the Tree.Flat kernels: the obvious list-building
   walks over the canonical rooting, with no index and no scratch. The
   library computes paths, LCAs and Steiner trees only through Flat; these
   exist so the tests can check its values and iteration orders against
   code simple enough to trust by reading. *)

module Tree = Hbn_tree.Tree

(* The edges an iterator visits, in visiting order. *)
let collect iter =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc);
  List.rev !acc

(* Lowest common ancestor by walking parent pointers. *)
let lca r u v =
  let u = ref u and v = ref v in
  while r.Tree.depth.(!u) > r.Tree.depth.(!v) do u := r.Tree.parent.(!u) done;
  while r.Tree.depth.(!v) > r.Tree.depth.(!u) do v := r.Tree.parent.(!v) done;
  while !u <> !v do
    u := r.Tree.parent.(!u);
    v := r.Tree.parent.(!v)
  done;
  !u

(* The u-v path edges in traversal order: u up to the LCA, then down to v. *)
let path_edges tree u v =
  let r = Tree.rooting tree in
  let a = lca r u v in
  let rec climb x acc =
    if x = a then acc else climb r.Tree.parent.(x) (r.Tree.parent_edge.(x) :: acc)
  in
  List.rev (climb u []) @ climb v []

(* The edges of the minimal subtree spanning [nodes], in ascending
   preorder of their lower endpoint: an edge is in it iff its lower side
   holds some but not all of the distinct nodes. *)
let steiner_edges tree nodes =
  let r = Tree.rooting tree in
  let mark = Array.make (Tree.n tree) 0 in
  List.iter (fun v -> mark.(v) <- 1) nodes;
  let total = Array.fold_left ( + ) 0 mark in
  let below = Tree.subtree_sums r mark in
  List.filter_map
    (fun v ->
      if below.(v) > 0 && below.(v) < total then Some r.Tree.parent_edge.(v)
      else None)
    (Array.to_list r.Tree.preorder)

(* The tree rooted at [root], by breadth-first search over the adjacency
   lists: each node's parent and depth. The library never builds a second
   rooting; Flat.next_hop and Flat.distance derive these from the
   canonical one, and the tests check them against this. *)
let reroot tree root =
  let n = Tree.n tree in
  let parent = Array.make n (-1) and depth = Array.make n (-1) in
  let queue = Queue.create () in
  depth.(root) <- 0;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun (u, _) ->
        if depth.(u) < 0 then begin
          parent.(u) <- v;
          depth.(u) <- depth.(v) + 1;
          Queue.add u queue
        end)
      (Tree.neighbors tree v)
  done;
  (parent, depth)

(* [v]'s nearest copy and its distance, pairwise: every copy in ascending
   id order, keeping the first strict minimum, so ties go to the lowest
   id. This is the scan Placement.nearest and Loads.of_copies ran before
   the one-sweep Flat.nearest_into kernel; (-1, max_int) without copies. *)
let nearest_copy tree copies v =
  List.fold_left
    (fun (best, best_d) c ->
      let d = List.length (path_edges tree v c) in
      if d < best_d then (c, d) else (best, best_d))
    (-1, max_int)
    (List.sort_uniq compare copies)
