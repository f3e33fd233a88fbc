(* Reference oracles for Steps 1 and 2 of the strategy and for the
   placement validator: the direct per-node forms the library ran before
   its per-copy kernels. Step 1 asks Flat.next_hop for every node's
   gravity parent; served groups and the deletion table are node-indexed
   arrays of size n; deletion orders copies by sorting (distance, node)
   pairs and looks for the nearest survivor by a BFS over the whole tree;
   the Step 1 and Step 2 placements are built eagerly; validation scans
   every node of every object. The tests check that the library computes
   exactly what these compute. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Deletion = Hbn_core.Deletion

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

(* Request groups by serving node, an n-array (empty lists off the copy
   set); each leaf goes to the first copy on its path to the center. *)
let served_groups w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let in_set = Array.make (Tree.n tree) false in
  List.iter (fun v -> in_set.(v) <- true) cs.Nibble.nodes;
  let out = Array.make (Tree.n tree) [] in
  let obj = cs.Nibble.obj in
  let rec first_copy v =
    if in_set.(v) then v else first_copy (Flat.next_hop fl v cs.Nibble.gravity)
  in
  List.iter
    (fun leaf ->
      let server = first_copy leaf in
      out.(server) <-
        {
          Nibble.leaf;
          reads = Workload.reads w ~obj leaf;
          writes = Workload.writes w ~obj leaf;
        }
        :: out.(server))
    (Workload.requesting_leaves w ~obj);
  out

let cut_groups groups sizes =
  let buckets = ref [] in
  let remaining = ref groups in
  List.iter
    (fun size ->
      let bucket = ref [] and need = ref size in
      while !need > 0 do
        match !remaining with
        | [] -> invalid_arg "cut_groups: sizes exceed requests"
        | g :: rest ->
          let w = Nibble.group_weight g in
          if w = 0 then remaining := rest
          else if w <= !need then begin
            bucket := g :: !bucket;
            need := !need - w;
            remaining := rest
          end
          else begin
            let take_reads = min g.Nibble.reads !need in
            let take_writes = !need - take_reads in
            bucket :=
              { g with Nibble.reads = take_reads; writes = take_writes }
              :: !bucket;
            remaining :=
              {
                g with
                Nibble.reads = g.Nibble.reads - take_reads;
                writes = g.Nibble.writes - take_writes;
              }
              :: rest;
            need := 0
          end
      done;
      buckets := List.rev !bucket :: !buckets)
    sizes;
  List.rev !buckets

(* The deletion algorithm over an n-sized node table. *)
let deletion ?(first_id = 0) w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let n = Tree.n tree in
  let kappa = Workload.write_contention w ~obj:cs.Nibble.obj in
  let next_id = ref first_id in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let groups = served_groups w cs in
  let table = Array.make n None in
  List.iter
    (fun v ->
      table.(v) <-
        Some
          (Copy.make ~id:(fresh ()) ~obj:cs.Nibble.obj ~kappa ~node:v
             groups.(v)))
    cs.Nibble.nodes;
  let gravity = cs.Nibble.gravity in
  let order =
    List.map (fun v -> (Flat.distance fl gravity v, v)) cs.Nibble.nodes
    |> List.sort (fun (da, a) (db, b) ->
           if da <> db then Int.compare db da else Int.compare b a)
    |> List.map snd
  in
  let deletions = ref 0 in
  let nearest_survivor () =
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add gravity queue;
    seen.(gravity) <- true;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      match table.(v) with
      | Some c when v <> gravity -> found := Some c
      | Some _ | None ->
        Array.iter
          (fun (u, _) ->
            if not seen.(u) then begin
              seen.(u) <- true;
              Queue.add u queue
            end)
          (Tree.neighbors tree v)
    done;
    !found
  in
  List.iter
    (fun v ->
      match table.(v) with
      | Some copy when copy.Copy.served < kappa ->
        let into =
          if v <> gravity then table.(Flat.next_hop fl v gravity)
          else nearest_survivor ()
        in
        Option.iter
          (fun p ->
            Copy.absorb p ~from:copy;
            table.(v) <- None;
            incr deletions)
          into
      | Some _ | None -> ())
    order;
  let splits = ref 0 in
  let copies = ref [] in
  Array.iteri
    (fun v slot ->
      match slot with
      | None -> ()
      | Some copy ->
        if copy.Copy.served > 2 * kappa then begin
          let sizes = Deletion.split_sizes ~served:copy.Copy.served ~kappa in
          match cut_groups copy.Copy.groups sizes with
          | [] -> assert false
          | first :: rest ->
            copy.Copy.groups <- first;
            copy.Copy.served <-
              List.fold_left (fun a g -> a + Nibble.group_weight g) 0 first;
            copies := copy :: !copies;
            List.iter
              (fun bucket ->
                incr splits;
                copies :=
                  Copy.make ~id:(fresh ()) ~obj:cs.Nibble.obj ~kappa ~node:v
                    bucket
                  :: !copies)
              rest
        end
        else copies := copy :: !copies)
    table;
  {
    Deletion.copies = List.rev !copies;
    deletions = !deletions;
    splits = !splits;
    ids_used = !next_id - first_id;
  }

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
  let nibble = Placement.nearest w ~copies:(Array.map (fun cs -> cs.Nibble.nodes) sets) in
  let next_id = ref 0 and deletions = ref 0 and splits = ref 0 in
  let per_object =
    Array.map
      (fun cs ->
        let obj = cs.Nibble.obj in
        if Workload.total_weight w ~obj = 0 then `Unused
        else if Workload.write_contention w ~obj = 0 then
          `Read_only (Workload.requesting_leaves w ~obj)
        else begin
          let out = deletion ~first_id:!next_id w cs in
          next_id := !next_id + out.Deletion.ids_used;
          deletions := !deletions + out.Deletion.deletions;
          splits := !splits + out.Deletion.splits;
          `Copies out.Deletion.copies
        end)
      sets
  in
  let modified =
    Array.mapi
      (fun obj stage ->
        match stage with
        | `Unused -> { Placement.copies = []; assigns = [] }
        | `Read_only leaves ->
          {
            Placement.copies = leaves;
            assigns =
              List.map
                (fun leaf ->
                  {
                    Placement.leaf;
                    server = leaf;
                    reads = Workload.reads w ~obj leaf;
                    writes = Workload.writes w ~obj leaf;
                  })
                leaves;
          }
        | `Copies cs ->
          {
            Placement.copies =
              List.sort_uniq compare (List.map (fun c -> c.Copy.node) cs);
            assigns =
              List.concat_map
                (fun c ->
                  List.filter_map
                    (fun g ->
                      if Nibble.group_weight g = 0 then None
                      else
                        Some
                          {
                            Placement.leaf = g.Nibble.leaf;
                            server = c.Copy.node;
                            reads = g.Nibble.reads;
                            writes = g.Nibble.writes;
                          })
                    c.Copy.groups)
                cs;
          })
      per_object
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
    (fun obj op ->
      let copies = op.Placement.copies in
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
        (fun (a : Placement.assignment) ->
          if a.reads < 0 || a.writes < 0 then
            fail "object %d: negative assignment" obj;
          if a.server < 0 || a.server >= Tree.n tree || not held.(a.server) then
            fail "object %d: server %d holds no copy" obj a.server;
          if not (Tree.is_leaf tree a.leaf) then
            fail "object %d: requests from non-processor %d" obj a.leaf;
          reads.(a.leaf) <- reads.(a.leaf) + a.reads;
          writes.(a.leaf) <- writes.(a.leaf) + a.writes)
        op.Placement.assigns;
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
    t;
  match !problem with None -> Ok () | Some msg -> Error msg
