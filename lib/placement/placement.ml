module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Exec = Hbn_exec.Exec

type obj_placement = {
  copies : int array;
  leaf : int array;
  server : int array;
  reads : int array;
  writes : int array;
}

type t = obj_placement array

let empty =
  { copies = [||]; leaf = [||]; server = [||]; reads = [||]; writes = [||] }

let nearest_object ~scratch w ~obj ~copies =
  let fl = Flat.of_tree (Workload.tree w) in
  let wf = Workload.flat w in
  let cs = Array.of_list (List.sort_uniq Int.compare copies) in
  let lo = wf.Workload.Flat.req_off.(obj)
  and hi = wf.Workload.Flat.req_off.(obj + 1) in
  if hi = lo then { empty with copies = cs }
  else if cs = [||] then
    invalid_arg "Placement.nearest: requests but no copies"
  else begin
    (* The sweep's (distance, id) minimum sends ties to the lowest node
       id — the canonical tie-break every evaluator and the incremental
       engine reproduce. *)
    Flat.nearest_into fl scratch ~copies:(fun mark -> Array.iter mark cs);
    let key = scratch.Flat.Scratch.acc and n = fl.Flat.n in
    let k = hi - lo in
    let leaf = Array.sub wf.Workload.Flat.req_leaf lo k in
    let server = Array.make k 0
    and reads = Array.make k 0
    and writes = Array.make k 0 in
    for i = 0 to k - 1 do
      let l = leaf.(i) in
      server.(i) <- key.(l) mod n;
      reads.(i) <- Workload.reads w ~obj l;
      writes.(i) <- Workload.writes w ~obj l
    done;
    { copies = cs; leaf; server; reads; writes }
  end

let nearest ?(exec = Exec.sequential) w ~copies =
  ignore (Workload.flat w);
  let fl = Flat.of_tree (Workload.tree w) in
  let jobs = Exec.jobs exec in
  (* One scratch per executor slot, as in [edge_loads]. *)
  let scratches = Array.init jobs (fun _ -> Flat.Scratch.create fl) in
  Exec.map exec (Workload.num_objects w) (fun obj ->
      let slot = if jobs = 1 then 0 else Exec.current_worker () in
      nearest_object ~scratch:scratches.(slot) w ~obj ~copies:copies.(obj))

let single w obj_to_node =
  let n = Workload.num_objects w in
  let copies = Array.make n [] in
  List.iter
    (fun (obj, node) ->
      if obj < 0 || obj >= n then invalid_arg "Placement.single: bad object";
      if copies.(obj) <> [] then
        invalid_arg "Placement.single: duplicate object";
      copies.(obj) <- [ node ])
    obj_to_node;
  Array.iteri
    (fun obj c ->
      if c = [] && Workload.requesting_leaves w ~obj <> [] then
        invalid_arg "Placement.single: object missing a copy")
    copies;
  nearest w ~copies

let full_replication w =
  let tree = Workload.tree w in
  let all = Tree.leaves tree in
  let copies =
    Array.init (Workload.num_objects w) (fun _ -> all)
  in
  nearest w ~copies

let copies t ~obj = Array.to_list t.(obj).copies

let leaf_only tree t =
  Array.for_all (fun op -> Array.for_all (Tree.is_leaf tree) op.copies) t

(* The first problem found ends the check. *)
exception Invalid of string

(* One set of per-node arrays serves every object: [held] and [seen]
   hold the index of the object that last marked a node, so they never
   need clearing, and only the nodes an object touches are read back. *)
let validate w t =
  let tree = Workload.tree w in
  let n = Tree.n tree in
  let wf = Workload.flat w in
  let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  let held = Array.make n (-1) and seen = Array.make n (-1) in
  let reads = Array.make n 0 and writes = Array.make n 0 in
  let touched = Array.make n 0 in
  let check_object obj op =
    let len = Array.length op.leaf in
    if
      Array.length op.server <> len
      || Array.length op.reads <> len
      || Array.length op.writes <> len
    then fail "object %d: assignment arrays differ in length" obj;
    (* Copies: duplicates first, then nodes out of range. *)
    let bad = ref [] and dup = ref false in
    Array.iter
      (fun c ->
        if c < 0 || c >= n then bad := c :: !bad
        else if held.(c) = obj then dup := true
        else held.(c) <- obj)
      op.copies;
    if !dup || List.length (List.sort_uniq Int.compare !bad) <> List.length !bad
    then fail "object %d: duplicate copies" obj;
    if !bad <> [] then fail "object %d: bad copy node" obj;
    (* Assignments, in order; [touched] lists the nodes they credit. *)
    let k = ref 0 in
    for i = 0 to len - 1 do
      let leaf = op.leaf.(i) and server = op.server.(i) in
      if op.reads.(i) < 0 || op.writes.(i) < 0 then
        fail "object %d: negative assignment" obj;
      if server < 0 || server >= n || held.(server) <> obj then
        fail "object %d: server %d holds no copy" obj server;
      if leaf < 0 || leaf >= n || not (Tree.is_leaf tree leaf) then
        fail "object %d: requests from non-processor %d" obj leaf;
      if seen.(leaf) <> obj then begin
        seen.(leaf) <- obj;
        reads.(leaf) <- 0;
        writes.(leaf) <- 0;
        touched.(!k) <- leaf;
        incr k
      end;
      reads.(leaf) <- reads.(leaf) + op.reads.(i);
      writes.(leaf) <- writes.(leaf) + op.writes.(i)
    done;
    (* Coverage: only credited nodes and requesting leaves can differ
       from the workload; report the lowest such node. *)
    let assigned v =
      if seen.(v) = obj then (reads.(v), writes.(v)) else (0, 0)
    in
    let required v = (Workload.reads w ~obj v, Workload.writes w ~obj v) in
    let worst = ref n in
    let check v = if v < !worst && assigned v <> required v then worst := v in
    for i = 0 to !k - 1 do
      check touched.(i)
    done;
    Workload.Flat.iter_requesting wf ~obj check;
    let v = !worst in
    if v < n then begin
      let (r, wr), (hr, hw) = (assigned v, required v) in
      if r <> hr then
        fail "object %d: node %d reads %d assigned, %d required" obj v r hr;
      fail "object %d: node %d writes %d assigned, %d required" obj v wr hw
    end
  in
  match
    if Array.length t <> Workload.num_objects w then
      fail "placement has %d objects, workload %d" (Array.length t)
        (Workload.num_objects w);
    Array.iteri check_object t
  with
  | () -> Ok ()
  | exception Invalid msg -> Error msg

type component = Read_path | Write_path | Write_steiner

let component_name = function
  | Read_path -> "read_path"
  | Write_path -> "write_path"
  | Write_steiner -> "write_steiner"

(* Section 1.1's load accounting, edge by edge: every elementary
   contribution of one object — read and write request traffic along
   leaf→server paths, then the write broadcast over the copies' Steiner
   tree — is reported through [f edge component amount]. Attribution
   tables fold it; the summing entry points below do
   the same sums by endpoint differences, and the tests hold them to
   this fold. *)
let iter_object_load_components_scratch fl scratch op f =
  let total_writes = ref 0 in
  for i = 0 to Array.length op.leaf - 1 do
    let reads = op.reads.(i) and writes = op.writes.(i) in
    total_writes := !total_writes + writes;
    if reads + writes > 0 && op.leaf.(i) <> op.server.(i) then
      Flat.iter_path fl scratch op.leaf.(i) op.server.(i) (fun e ->
          if reads > 0 then f e Read_path reads;
          if writes > 0 then f e Write_path writes)
  done;
  let total_writes = !total_writes in
  if total_writes > 0 then
    Flat.iter_steiner fl scratch
      ~nodes:(fun mark -> Array.iter mark op.copies)
      (fun e -> f e Write_steiner total_writes)

(* The same accounting as [iter_object_load_components_scratch], summed
   instead of attributed: each assignment's path and the copy set's
   Steiner tree go into the difference array [d], [buf] holding a copy of
   the copy array for the Steiner tour, which sorts it in place (grown
   when a copy array outgrows it). A component counts only when
   positive, and a path only when its total is. *)
let diff_object fl d buf op =
  let positive (x : int) = if x > 0 then x else 0 in
  let total_writes = ref 0 in
  for i = 0 to Array.length op.leaf - 1 do
    let reads = op.reads.(i) and writes = op.writes.(i) in
    total_writes := !total_writes + writes;
    if reads + writes > 0 then
      Flat.Diff.path fl d op.leaf.(i) op.server.(i)
        (positive reads + positive writes)
  done;
  let total_writes = !total_writes in
  if total_writes > 0 then begin
    let len = Array.length op.copies in
    if len > Array.length !buf then buf := Array.make len 0;
    Array.blit op.copies 0 !buf 0 len;
    Flat.Diff.steiner fl d ~nodes:!buf ~len total_writes
  end

let edge_loads ?(exec = Exec.sequential) w t =
  let fl = Flat.of_tree (Workload.tree w) in
  let n = fl.Flat.n in
  let jobs = Exec.jobs exec in
  (* One difference array and copy buffer per executor slot, summed in
     slot order before the one read-out — integer addition commutes, so
     the loads are identical at any job count. *)
  let diffs = Array.init jobs (fun _ -> Array.make n 0) in
  let bufs = Array.init jobs (fun _ -> ref (Array.make n 0)) in
  Exec.iter exec (Array.length t) (fun obj ->
      let slot = if jobs = 1 then 0 else Exec.current_worker () in
      diff_object fl diffs.(slot) bufs.(slot) t.(obj));
  let d = diffs.(0) in
  for slot = 1 to jobs - 1 do
    let p = diffs.(slot) in
    for v = 0 to n - 1 do
      d.(v) <- d.(v) + p.(v)
    done
  done;
  let loads = Array.make (max 1 fl.Flat.m) 0 in
  Flat.Diff.edges_into fl d ~dst:loads;
  loads

type site = [ `Edge of int | `Bus of int ]

type congestion = {
  value : float;
  edge_loads : int array;
  bus_loads2 : int array;
  bottleneck : site;
}

(* Every rating reads the sites in one scan order: edge [e] at position
   [e], then the [i]-th bus of [Tree.buses] at [num_edges + i]. A bus's
   relative load is its doubled load over twice its bandwidth. *)
let[@inline] relative tree ~edge_loads ~bus_loads2 i =
  let m = Tree.num_edges tree in
  if i < m then
    float_of_int edge_loads.(i) /. float_of_int (Tree.edge_bandwidth tree i)
  else
    let b = (Tree.buses_array tree).(i - m) in
    float_of_int bus_loads2.(b)
    /. (2. *. float_of_int (Tree.bus_bandwidth tree b))

let num_sites tree = Tree.num_edges tree + Array.length (Tree.buses_array tree)

let site_at tree i =
  let m = Tree.num_edges tree in
  if i < m then `Edge i else `Bus (Tree.buses_array tree).(i - m)

(* The position of the first site with the maximum relative load (strict
   [>]), or -1 when no site is loaded. Allocates nothing. *)
let hottest tree ~edge_loads ~bus_loads2 =
  let best = ref 0. and arg = ref (-1) in
  for i = 0 to num_sites tree - 1 do
    let rel = relative tree ~edge_loads ~bus_loads2 i in
    if rel > !best then begin
      best := rel;
      arg := i
    end
  done;
  !arg

let max_relative tree ~edge_loads ~bus_loads2 =
  match hottest tree ~edge_loads ~bus_loads2 with
  | -1 -> 0.
  | i -> relative tree ~edge_loads ~bus_loads2 i

let rank_sites tree c ~k =
  let edge_loads = c.edge_loads and bus_loads2 = c.bus_loads2 in
  List.init (num_sites tree) (fun i ->
      (site_at tree i, relative tree ~edge_loads ~bus_loads2 i))
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < k)

let congestion_of_edge_loads tree loads =
  let bus_loads2 = Array.make (Tree.n tree) 0 in
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    if not (Tree.is_leaf tree u) then
      bus_loads2.(u) <- bus_loads2.(u) + loads.(e);
    if not (Tree.is_leaf tree v) then
      bus_loads2.(v) <- bus_loads2.(v) + loads.(e)
  done;
  let value, bottleneck =
    match hottest tree ~edge_loads:loads ~bus_loads2 with
    | -1 -> (0., `Edge 0)
    | i -> (relative tree ~edge_loads:loads ~bus_loads2 i, site_at tree i)
  in
  { value; edge_loads = loads; bus_loads2; bottleneck }

let evaluate ?exec w t =
  congestion_of_edge_loads (Workload.tree w) (edge_loads ?exec w t)

let congestion ?exec w t = (evaluate ?exec w t).value

let total_load w t = Array.fold_left ( + ) 0 (edge_loads w t)
