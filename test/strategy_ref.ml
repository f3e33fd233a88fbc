(* Reference oracles for Steps 1 and 2 of the strategy and for the
   placement validator: the direct per-node forms the library ran before
   its per-copy kernels. Step 1 asks Flat.next_hop for every node's
   gravity parent; Step 2 runs the n-table deletion oracle
   (Hbn_ref.Deletion_ref); the Step 1 and Step 2 placements are built
   eagerly, as lists (Hbn_ref.Placement_ref); validation scans every node of every object. The tests check
   that the library computes exactly what these compute. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Deletion = Hbn_core.Deletion
module Deletion_ref = Hbn_ref.Deletion_ref
module Placement_ref = Hbn_ref.Placement_ref

(* The nibble rule: every node asks next_hop which side of it the gravity
   center lies on. *)
let place w ~obj =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let total = Workload.total_weight w ~obj in
  if total = 0 then { Nibble.obj; nodes = []; gravity = 0 }
  else begin
    let r = fl.Flat.r in
    let weights = Workload.weight_vector w ~obj in
    let acc = Tree.subtree_sums r weights in
    let gravity = Nibble.gravity_center tree ~weights in
    let kappa = Workload.write_contention w ~obj in
    let weight_below v =
      let p = Flat.next_hop fl v gravity in
      if p = r.Tree.parent.(v) then acc.(v) else total - acc.(p)
    in
    let nodes = ref [] in
    for v = fl.Flat.n - 1 downto 0 do
      if v = gravity || weight_below v > kappa then nodes := v :: !nodes
    done;
    { Nibble.obj; nodes = !nodes; gravity }
  end

(* Steps 1 and 2 with both placements built eagerly. *)
type steps = {
  sets : Nibble.copy_set array;
  nibble : Placement.t;
  modified : Placement.t;
  copies : Copy.t list;  (* every Step 2 copy, ids numbered globally *)
  deletions : int;
  splits : int;
}

let steps w =
  let objects = Workload.num_objects w in
  let sets = Array.init objects (fun obj -> place w ~obj) in
  let nibble =
    Placement_ref.nearest w ~copies:(Array.map (fun cs -> cs.Nibble.nodes) sets)
  in
  let next_id = ref 0 and deletions = ref 0 and splits = ref 0 in
  let per_object =
    Array.map
      (fun cs ->
        let obj = cs.Nibble.obj in
        if Workload.total_weight w ~obj = 0 then `Unused
        else if Workload.write_contention w ~obj = 0 then
          `Read_only (Workload.requesting_leaves w ~obj)
        else begin
          let out = Deletion_ref.deletion ~first_id:!next_id w cs in
          next_id := !next_id + out.Deletion.ids_used;
          deletions := !deletions + out.Deletion.deletions;
          splits := !splits + out.Deletion.splits;
          `Copies out.Deletion.copies
        end)
      sets
  in
  let modified =
    Placement_ref.of_stages w ~node:(fun c -> c.Copy.node) per_object
  in
  let copies =
    Array.to_list per_object
    |> List.concat_map (function `Copies cs -> cs | `Unused | `Read_only _ -> [])
  in
  { sets; nibble; modified; copies; deletions = !deletions; splits = !splits }

(* Placement validation scanning all n nodes per object, recording the
   first problem and carrying on. *)
let validate w t =
  let tree = Workload.tree w in
  let problem = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  if Array.length t <> Workload.num_objects w then
    fail "placement has %d objects, workload %d" (Array.length t)
      (Workload.num_objects w);
  Array.iteri
    (fun obj (op : Placement_ref.obj) ->
      let copies = op.copies in
      if List.length (List.sort_uniq compare copies) <> List.length copies then
        fail "object %d: duplicate copies" obj;
      let held = Array.make (Tree.n tree) false in
      List.iter
        (fun c ->
          if c < 0 || c >= Tree.n tree then fail "object %d: bad copy node" obj
          else held.(c) <- true)
        copies;
      let reads = Array.make (Tree.n tree) 0 in
      let writes = Array.make (Tree.n tree) 0 in
      List.iter
        (fun (a : Placement_ref.assignment) ->
          if a.reads < 0 || a.writes < 0 then
            fail "object %d: negative assignment" obj;
          if a.server < 0 || a.server >= Tree.n tree || not held.(a.server) then
            fail "object %d: server %d holds no copy" obj a.server;
          if not (Tree.is_leaf tree a.leaf) then
            fail "object %d: requests from non-processor %d" obj a.leaf;
          reads.(a.leaf) <- reads.(a.leaf) + a.reads;
          writes.(a.leaf) <- writes.(a.leaf) + a.writes)
        op.assigns;
      for v = 0 to Tree.n tree - 1 do
        let hr = if Tree.is_leaf tree v then Workload.reads w ~obj v else 0 in
        let hw = if Tree.is_leaf tree v then Workload.writes w ~obj v else 0 in
        if reads.(v) <> hr then
          fail "object %d: node %d reads %d assigned, %d required" obj v
            reads.(v) hr;
        if writes.(v) <> hw then
          fail "object %d: node %d writes %d assigned, %d required" obj v
            writes.(v) hw
      done)
    (Placement_ref.to_lists t);
  match !problem with None -> Ok () | Some msg -> Error msg
