module Tree = Hbn_tree.Tree

(* States per edge: copies on the child side only, the parent side only,
   or both. The child side of edge e (in the canonical rooting) is the
   subtree below it. *)

type state = Child | Parent | Both

let states = [ Child; Parent; Both ]

let transition_cost ~size from_ to_ =
  match (from_, to_) with
  | Child, Child | Parent, Parent | Both, Both -> 0
  | Both, Child | Both, Parent -> 0 (* dropping copies is free *)
  | Child, Parent | Parent, Child -> size (* migration crosses the edge *)
  | Child, Both | Parent, Both -> size (* replication crosses the edge *)

let request_cost state ~on_child (kind : Request.kind) =
  match (kind, state, on_child) with
  | Request.Read, Child, true | Request.Read, Parent, false -> 0
  | Request.Read, Both, _ -> 0
  | Request.Read, Child, false | Request.Read, Parent, true -> 1
  | Request.Write, Child, true | Request.Write, Parent, false -> 0
  | Request.Write, Child, false | Request.Write, Parent, true -> 1
  | Request.Write, Both, _ -> 1

let per_edge_optimum ?(size = 1) tree ~initial reqs =
  if size < 1 then invalid_arg "Offline.per_edge_optimum: size must be >= 1";
  let m = max 1 (Tree.num_edges tree) in
  let r = Tree.rooting tree in
  (* in_child.(e).(v): is node v strictly below edge e? Computed per edge
     via the child endpoint's subtree membership. *)
  let below = Array.make m (-1) in
  for v = 0 to Tree.n tree - 1 do
    if v <> r.Tree.root then below.(r.Tree.parent_edge.(v)) <- v
  done;
  let in_subtree =
    (* in_subtree.(v) = preorder interval for subtree membership tests *)
    let enter = Array.make (Tree.n tree) 0 in
    let leave = Array.make (Tree.n tree) 0 in
    let pos = Array.make (Tree.n tree) 0 in
    Array.iteri (fun i v -> pos.(v) <- i) r.Tree.preorder;
    (* preorder positions; subtree of v = contiguous interval starting at
       pos v of size |subtree v| *)
    let size = Tree.subtree_sums r (Array.make (Tree.n tree) 1) in
    Array.iteri
      (fun v p ->
        enter.(v) <- p;
        leave.(v) <- p + size.(v))
      pos;
    fun root v -> enter.(v) >= enter.(root) && enter.(v) < leave.(root)
  in
  let opt = Array.make m 0 in
  for e = 0 to Tree.num_edges tree - 1 do
    let child_root = below.(e) in
    let on_child v = in_subtree child_root v in
    let cost s = match s with Child -> 0 | Parent -> size | Both -> size in
    (* initial single copy on [initial]: state Child costs 0 if the copy
       is below e, else 1 (migrate); symmetric for Parent; Both = 1. *)
    let init s =
      if on_child initial then cost s
      else match s with Child -> size | Parent -> 0 | Both -> size
    in
    let current = List.map (fun s -> (s, init s)) states in
    let step current (req : Request.t) =
      let on_child_req = on_child req.Request.node in
      List.map
        (fun s ->
          let best =
            List.fold_left
              (fun acc (s0, c0) ->
                min acc (c0 + transition_cost ~size s0 s))
              max_int current
          in
          (s, best + request_cost s ~on_child:on_child_req req.Request.kind))
        states
    in
    let final = List.fold_left step current reqs in
    opt.(e) <- List.fold_left (fun acc (_, c) -> min acc c) max_int final
  done;
  opt
