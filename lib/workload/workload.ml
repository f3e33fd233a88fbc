module Tree = Hbn_tree.Tree

module Flat = struct
  type t = {
    nodes : int;
    objects : int;
    weights : int array;
    total_reads : int array;
    kappa : int array;
    req_off : int array;
    req_leaf : int array;
  }

  let row_base f ~obj = obj * f.nodes

  let weight f ~obj v = f.weights.((obj * f.nodes) + v)

  let kappa f ~obj = f.kappa.(obj)

  let total_weight f ~obj = f.total_reads.(obj) + f.kappa.(obj)

  let num_requesting f ~obj = f.req_off.(obj + 1) - f.req_off.(obj)

  let iter_requesting f ~obj g =
    for i = f.req_off.(obj) to f.req_off.(obj + 1) - 1 do
      g f.req_leaf.(i)
    done
end

type t = {
  tree : Tree.t;
  reads : int array array;
  writes : int array array;
  (* The SoA mirror of [reads]/[writes] consumed by the hot pipeline:
     weight rows, per-object totals and the requesting-leaf CSR in shared
     flat arrays. Built on first use, invalidated wholesale by
     [set_read]/[set_write] (generators batch their updates before the
     pipeline reads anything, so rebuilds are rare). Immutable once
     built; force it with [flat] before fanning out domains. *)
  mutable flat : Flat.t option;
}

let check_matrix tree label m =
  Array.iteri
    (fun x row ->
      if Array.length row <> Tree.n tree then
        invalid_arg
          (Printf.sprintf "Workload.make: %s row %d has wrong length" label x);
      Array.iteri
        (fun v rate ->
          if rate < 0 then
            invalid_arg
              (Printf.sprintf "Workload.make: negative %s rate at (%d, %d)"
                 label x v);
          if rate > 0 && not (Tree.is_leaf tree v) then
            invalid_arg
              (Printf.sprintf
                 "Workload.make: %s rate on non-processor node %d (object %d)"
                 label v x))
        row)
    m

let make tree ~reads ~writes =
  if Array.length reads <> Array.length writes then
    invalid_arg "Workload.make: reads/writes object counts differ";
  check_matrix tree "read" reads;
  check_matrix tree "write" writes;
  {
    tree;
    reads;
    writes;
    flat = None;
  }

let empty tree ~objects =
  if objects < 0 then invalid_arg "Workload.empty: negative object count";
  {
    tree;
    reads = Array.init objects (fun _ -> Array.make (Tree.n tree) 0);
    writes = Array.init objects (fun _ -> Array.make (Tree.n tree) 0);
    flat = None;
  }

let tree t = t.tree

let num_objects t = Array.length t.reads

let reads t ~obj v = t.reads.(obj).(v)

let writes t ~obj v = t.writes.(obj).(v)

let weight t ~obj v = t.reads.(obj).(v) + t.writes.(obj).(v)

let build_flat t =
  let nodes = Tree.n t.tree in
  let objects = Array.length t.reads in
  let weights = Array.make (objects * nodes) 0 in
  let total_reads = Array.make objects 0 in
  let kappa = Array.make objects 0 in
  let req_off = Array.make (objects + 1) 0 in
  let leaves = Tree.leaves_array t.tree in
  for obj = 0 to objects - 1 do
    let rr = t.reads.(obj) and wr = t.writes.(obj) in
    let base = obj * nodes in
    let tr = ref 0 and tw = ref 0 in
    for v = 0 to nodes - 1 do
      weights.(base + v) <- rr.(v) + wr.(v);
      tr := !tr + rr.(v);
      tw := !tw + wr.(v)
    done;
    total_reads.(obj) <- !tr;
    kappa.(obj) <- !tw;
    let requesting = ref 0 in
    Array.iter
      (fun leaf -> if weights.(base + leaf) > 0 then incr requesting)
      leaves;
    req_off.(obj + 1) <- req_off.(obj) + !requesting
  done;
  let req_leaf = Array.make req_off.(objects) 0 in
  for obj = 0 to objects - 1 do
    let base = obj * nodes in
    let at = ref req_off.(obj) in
    (* [leaves] is ascending, so each CSR slice is too. *)
    Array.iter
      (fun leaf ->
        if weights.(base + leaf) > 0 then begin
          req_leaf.(!at) <- leaf;
          incr at
        end)
      leaves
  done;
  { Flat.nodes; objects; weights; total_reads; kappa; req_off; req_leaf }

let flat t =
  match t.flat with
  | Some f -> f
  | None ->
    let f = build_flat t in
    t.flat <- Some f;
    f

let check_update t v rate =
  if rate < 0 then invalid_arg "Workload.set: negative rate";
  if not (Tree.is_leaf t.tree v) then
    invalid_arg "Workload.set: only processors issue requests"

let set_read t ~obj v rate =
  check_update t v rate;
  t.reads.(obj).(v) <- rate;
  t.flat <- None

let set_write t ~obj v rate =
  check_update t v rate;
  t.writes.(obj).(v) <- rate;
  t.flat <- None

let write_contention t ~obj = Flat.kappa (flat t) ~obj

let total_weight t ~obj = Flat.total_weight (flat t) ~obj

let total_requests t =
  let sum = ref 0 in
  for x = 0 to num_objects t - 1 do
    sum := !sum + total_weight t ~obj:x
  done;
  !sum

let read_vector t ~obj = Array.copy t.reads.(obj)

let write_vector t ~obj = Array.copy t.writes.(obj)

let weight_vector t ~obj =
  let f = flat t in
  Array.sub f.Flat.weights (Flat.row_base f ~obj) f.Flat.nodes

let requesting_leaves t ~obj =
  let f = flat t in
  let acc = ref [] in
  for i = f.Flat.req_off.(obj + 1) - 1 downto f.Flat.req_off.(obj) do
    acc := f.Flat.req_leaf.(i) :: !acc
  done;
  !acc

let owner t ~obj =
  let f = flat t in
  let best = ref (-1) and best_w = ref 0 in
  Flat.iter_requesting f ~obj (fun leaf ->
      let h = Flat.weight f ~obj leaf in
      if h > !best_w then begin
        best := leaf;
        best_w := h
      end);
  if !best < 0 then None else Some !best

let pp ppf t =
  Format.fprintf ppf "@[<v>workload: %d objects on %d nodes@," (num_objects t)
    (Tree.n t.tree);
  for x = 0 to num_objects t - 1 do
    Format.fprintf ppf "  object %d: kappa=%d, weight=%d, leaves=%d@," x
      (write_contention t ~obj:x) (total_weight t ~obj:x)
      (List.length (requesting_leaves t ~obj:x))
  done;
  Format.fprintf ppf "@]"
