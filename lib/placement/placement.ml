module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Exec = Hbn_exec.Exec

type assignment = { leaf : int; server : int; reads : int; writes : int }

type obj_placement = { copies : int list; assigns : assignment list }

type t = obj_placement array

let dedup_sorted xs = List.sort_uniq compare xs

let nearest_object ~scratch w ~obj ~copies =
  let fl = Flat.of_tree (Workload.tree w) in
  let wf = Workload.flat w in
  let cs = dedup_sorted copies in
  let lo = wf.Workload.Flat.req_off.(obj)
  and hi = wf.Workload.Flat.req_off.(obj + 1) in
  if hi > lo && cs = [] then
    invalid_arg "Placement.nearest: requests but no copies";
  let assigns = ref [] in
  if hi > lo then begin
    (* The sweep's (distance, id) minimum sends ties to the lowest node
       id — the canonical tie-break every evaluator and the incremental
       engine reproduce. *)
    Flat.nearest_into fl scratch ~copies:(fun mark -> List.iter mark cs);
    let key = scratch.Flat.Scratch.acc and n = fl.Flat.n in
    for i = hi - 1 downto lo do
      let leaf = wf.Workload.Flat.req_leaf.(i) in
      assigns :=
        {
          leaf;
          server = key.(leaf) mod n;
          reads = Workload.reads w ~obj leaf;
          writes = Workload.writes w ~obj leaf;
        }
        :: !assigns
    done
  end;
  { copies = cs; assigns = !assigns }

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

let copies t ~obj = t.(obj).copies

let is_strict t =
  Array.for_all
    (fun op ->
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun a ->
          if Hashtbl.mem seen a.leaf then false
          else begin
            Hashtbl.add seen a.leaf ();
            true
          end)
        op.assigns)
    t

let to_strict t =
  Array.map
    (fun op ->
      let by_leaf = Hashtbl.create 16 in
      List.iter
        (fun a ->
          let prev = try Hashtbl.find by_leaf a.leaf with Not_found -> [] in
          Hashtbl.replace by_leaf a.leaf (a :: prev))
        op.assigns;
      let assigns =
        Hashtbl.fold
          (fun leaf parts acc ->
            let reads = List.fold_left (fun s a -> s + a.reads) 0 parts in
            let writes = List.fold_left (fun s a -> s + a.writes) 0 parts in
            let server =
              (* majority server; ties to the lowest node id *)
              let best = ref (-1) and best_w = ref (-1) in
              List.iter
                (fun a ->
                  let wgt = a.reads + a.writes in
                  if
                    wgt > !best_w
                    || (wgt = !best_w && a.server < !best)
                  then begin
                    best := a.server;
                    best_w := wgt
                  end)
                parts;
              !best
            in
            { leaf; server; reads; writes } :: acc)
          by_leaf []
      in
      { op with assigns = List.sort compare assigns })
    t

let leaf_only tree t =
  Array.for_all
    (fun op -> List.for_all (fun c -> Tree.is_leaf tree c) op.copies)
    t

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
    (* Copies: duplicates first, then nodes out of range. *)
    let bad = ref [] and dup = ref false in
    List.iter
      (fun c ->
        if c < 0 || c >= n then bad := c :: !bad
        else if held.(c) = obj then dup := true
        else held.(c) <- obj)
      op.copies;
    if !dup || List.length (dedup_sorted !bad) <> List.length !bad then
      fail "object %d: duplicate copies" obj;
    if !bad <> [] then fail "object %d: bad copy node" obj;
    (* Assignments, in order; [touched] lists the nodes they credit. *)
    let k = ref 0 in
    List.iter
      (fun a ->
        if a.reads < 0 || a.writes < 0 then
          fail "object %d: negative assignment" obj;
        if a.server < 0 || a.server >= n || held.(a.server) <> obj then
          fail "object %d: server %d holds no copy" obj a.server;
        if a.leaf < 0 || a.leaf >= n || not (Tree.is_leaf tree a.leaf) then
          fail "object %d: requests from non-processor %d" obj a.leaf;
        if seen.(a.leaf) <> obj then begin
          seen.(a.leaf) <- obj;
          reads.(a.leaf) <- 0;
          writes.(a.leaf) <- 0;
          touched.(!k) <- a.leaf;
          incr k
        end;
        reads.(a.leaf) <- reads.(a.leaf) + a.reads;
        writes.(a.leaf) <- writes.(a.leaf) + a.writes)
      op.assigns;
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
   tables and certificates fold it; the summing entry points below do
   the same sums by endpoint differences, and the tests hold them to
   this fold. *)
let iter_object_load_components_scratch fl scratch op f =
  List.iter
    (fun a ->
      if a.reads + a.writes > 0 && a.leaf <> a.server then
        Flat.iter_path fl scratch a.leaf a.server (fun e ->
            if a.reads > 0 then f e Read_path a.reads;
            if a.writes > 0 then f e Write_path a.writes))
    op.assigns;
  let total_writes = List.fold_left (fun s a -> s + a.writes) 0 op.assigns in
  if total_writes > 0 then
    Flat.iter_steiner fl scratch
      ~nodes:(fun mark -> List.iter mark op.copies)
      (fun e -> f e Write_steiner total_writes)

(* The same accounting as [iter_object_load_components_scratch], summed
   instead of attributed: each assignment's path and the copy set's
   Steiner tree go into the difference array [d], [buf] holding the copy
   list for the Steiner tour (grown when a list outgrows it). A component
   counts only when positive, and a path only when its total is. *)
let diff_object fl d buf op =
  let positive (x : int) = if x > 0 then x else 0 in
  let total_writes = ref 0 in
  List.iter
    (fun a ->
      total_writes := !total_writes + a.writes;
      if a.reads + a.writes > 0 then
        Flat.Diff.path fl d a.leaf a.server (positive a.reads + positive a.writes))
    op.assigns;
  let total_writes = !total_writes in
  if total_writes > 0 then begin
    let len = List.length op.copies in
    if len > Array.length !buf then buf := Array.make len 0;
    List.iteri (fun i c -> !buf.(i) <- c) op.copies;
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

let to_dot tree t =
  let held = Array.make (Tree.n tree) [] in
  Array.iteri
    (fun obj op ->
      List.iter (fun v -> held.(v) <- obj :: held.(v)) op.copies)
    t;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph hbn_placement {\n";
  for v = 0 to Tree.n tree - 1 do
    if Tree.is_leaf tree v then begin
      let label =
        match List.rev held.(v) with
        | [] -> Printf.sprintf "P%d" v
        | objs ->
          Printf.sprintf "P%d\\nx%s" v
            (String.concat ",x" (List.map string_of_int objs))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"%s\"];\n" v label)
    end
    else
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"bus %d\"];\n" v v)
  done;
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    Buffer.add_string buf
      (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v
         (Tree.edge_bandwidth tree e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
