module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

module Raw = struct
  type t = {
    tree : Tree.t;
    loads : int array;
    bus_loads2 : int array;
  }

  let create tree =
    {
      tree;
      loads = Array.make (max 1 (Tree.num_edges tree)) 0;
      bus_loads2 = Array.make (Tree.n tree) 0;
    }

  let add t e amount =
    if amount <> 0 then begin
      t.loads.(e) <- t.loads.(e) + amount;
      let u, v = Tree.edge_endpoints t.tree e in
      if not (Tree.is_leaf t.tree u) then
        t.bus_loads2.(u) <- t.bus_loads2.(u) + amount;
      if not (Tree.is_leaf t.tree v) then
        t.bus_loads2.(v) <- t.bus_loads2.(v) + amount
    end

  let loads t = Array.copy t.loads

  (* Same scan order and arithmetic as [Placement.congestion_of_edge_loads]
     so the float results are bit-identical — the hill climb's accept
     decisions must not depend on which evaluator ran. *)
  let congestion_value t =
    let tree = t.tree in
    let best = ref 0. in
    for e = 0 to Tree.num_edges tree - 1 do
      let rel =
        float_of_int t.loads.(e) /. float_of_int (Tree.edge_bandwidth tree e)
      in
      if rel > !best then best := rel
    done;
    Array.iter
      (fun b ->
        let rel =
          float_of_int t.bus_loads2.(b)
          /. (2. *. float_of_int (Tree.bus_bandwidth tree b))
        in
        if rel > !best then best := rel)
      (Tree.buses_array tree);
    !best
end

(* Undo-journal entries. [moved] records, per reassigned leaf, the server
   and server distance it had before the operation; the copy-set and
   Steiner bookkeeping is inverted structurally (the low-level add/remove
   are exact inverses of each other on [has]/[copies]/[below]/[ncopies]). *)
type undo =
  | U_add of { obj : int; node : int; moved : (int * int * int) list }
  | U_remove of { obj : int; node : int; moved : (int * int * int) list }

type obj_state = {
  has : bool array;  (* per node: holds a copy *)
  mutable copies : int list;  (* the nodes with [has], ascending *)
  below : int array;  (* per edge: copies strictly on the child side *)
  server : int array;  (* per node: serving copy; -1 = unassigned *)
  sdist : int array;  (* distance to [server]; -1 when unassigned *)
  reads : int array;
  writes : int array;
  amount : int array;  (* reads + writes, cached *)
  req : int array;  (* requesting leaves, ascending *)
  total_writes : int;  (* κ_x: one Steiner-tree broadcast per write *)
  mutable ncopies : int;
}

type t = {
  w : Workload.t;
  tree : Tree.t;
  fl : Flat.t;  (* O(1) LCA/distance over the canonical rooting *)
  raw : Raw.t;
  objs : obj_state array;
  eseen : int array;  (* per-edge visit stamps for root-path unions *)
  estack : int array;  (* the current affected-edge set, in visit order *)
  mutable esp : int;
  mutable stamp : int;
  mutable journal : undo list;
  mutable jlen : int;
}

type checkpoint = int

let create w =
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let n = Tree.n tree in
  let objs =
    Array.init (Workload.num_objects w) (fun obj ->
        let reads = Workload.read_vector w ~obj in
        let writes = Workload.write_vector w ~obj in
        {
          has = Array.make n false;
          copies = [];
          below = Array.make m 0;
          server = Array.make n (-1);
          sdist = Array.make n (-1);
          reads;
          writes;
          amount = Array.init n (fun v -> reads.(v) + writes.(v));
          req = Array.of_list (Workload.requesting_leaves w ~obj);
          total_writes = Workload.write_contention w ~obj;
          ncopies = 0;
        })
  in
  {
    w;
    tree;
    fl = Flat.of_tree tree;
    raw = Raw.create tree;
    objs;
    eseen = Array.make m (-1);
    estack = Array.make m 0;
    esp = 0;
    stamp = 0;
    journal = [];
    jlen = 0;
  }

let workload t = t.w

let obj_state t obj =
  if obj < 0 || obj >= Array.length t.objs then
    invalid_arg "Loads: object out of range";
  t.objs.(obj)

let check_node t v =
  if v < 0 || v >= Tree.n t.tree then invalid_arg "Loads: node out of range"

(* {2 Steiner-tree accounting}

   An edge belongs to the Steiner tree of the copy set iff
   [0 < below < ncopies]. A single add/remove of copy [c] changes [below]
   only on the root path of [c], and changes the [< ncopies] test only on
   edges below which the whole (old or new) set lies — those edges form
   the root path of any surviving copy (the anchor: the head of the copy
   list). Re-evaluating the membership contribution on the union of the
   two root paths therefore covers every edge whose write-broadcast load
   can change: O(height). *)

let member os e n = os.below.(e) > 0 && os.below.(e) < n

(* Fills [estack] with the (deduplicated) union of the two root paths —
   no list allocation; the set stays valid until the next call. *)
let affected_edges t ~node ~other =
  t.stamp <- t.stamp + 1;
  t.esp <- 0;
  let visit e =
    if t.eseen.(e) <> t.stamp then begin
      t.eseen.(e) <- t.stamp;
      t.estack.(t.esp) <- e;
      t.esp <- t.esp + 1
    end
  in
  Flat.iter_path_to_root t.fl node visit;
  if other >= 0 then Flat.iter_path_to_root t.fl other visit

let rec insert c = function
  | x :: rest when x < c -> x :: insert c rest
  | l -> c :: l

(* Moves copy [c] into ([delta = 1]) or out of ([delta = -1]) the set
   counted by [below], re-pricing the Steiner edges around it. [anchor]
   is a copy on both sides of the change, or -1 when there is none. *)
let steiner_update t os c ~anchor ~delta =
  let n_new = os.ncopies + delta in
  if os.total_writes > 0 then begin
    affected_edges t ~node:c ~other:anchor;
    let wts = os.total_writes in
    for i = 0 to t.esp - 1 do
      let e = t.estack.(i) in
      if member os e os.ncopies then Raw.add t.raw e (-wts)
    done;
    Flat.iter_path_to_root t.fl c (fun e ->
        os.below.(e) <- os.below.(e) + delta);
    os.ncopies <- n_new;
    for i = 0 to t.esp - 1 do
      let e = t.estack.(i) in
      if member os e n_new then Raw.add t.raw e wts
    done
  end
  else begin
    Flat.iter_path_to_root t.fl c (fun e ->
        os.below.(e) <- os.below.(e) + delta);
    os.ncopies <- n_new
  end

(* Low-level add/remove of copy [c]: copy set, [below] and Steiner loads.
   Assignments are the caller's business. *)
let steiner_add t o c =
  let os = t.objs.(o) in
  let anchor = match os.copies with [] -> -1 | a :: _ -> a in
  steiner_update t os c ~anchor ~delta:1;
  os.has.(c) <- true;
  os.copies <- insert c os.copies

let steiner_remove t o c =
  let os = t.objs.(o) in
  os.has.(c) <- false;
  os.copies <- List.filter (fun x -> x <> c) os.copies;
  let anchor = match os.copies with [] -> -1 | a :: _ -> a in
  steiner_update t os c ~anchor ~delta:(-1)

(* Point a leaf's requests at [server] (or [-1] to clear), moving its
   path load. *)
let set_server t o leaf ~server ~dist =
  let os = t.objs.(o) in
  let amt = os.amount.(leaf) in
  let apply target sign =
    if target >= 0 && amt <> 0 then
      Flat.iter_path_unordered t.fl leaf target (fun e ->
          Raw.add t.raw e (sign * amt))
  in
  apply os.server.(leaf) (-1);
  os.server.(leaf) <- server;
  os.sdist.(leaf) <- dist;
  apply server 1

let push t u =
  t.journal <- u :: t.journal;
  t.jlen <- t.jlen + 1

(* {2 Delta operations} *)

let add_copy t ~obj c =
  check_node t c;
  let os = obj_state t obj in
  if os.has.(c) then
    invalid_arg "Loads.add_copy: node already holds a copy";
  steiner_add t obj c;
  (* The nearest-copy rule: a leaf defects to [c] when strictly closer,
     or equally close with a lower id — exactly [Placement.nearest]'s
     tie-breaking, so the maintained assignment stays canonical. *)
  let moved = ref [] in
  Array.iter
    (fun leaf ->
      let d = Flat.distance t.fl leaf c in
      let cur = os.server.(leaf) in
      if cur < 0 || d < os.sdist.(leaf) || (d = os.sdist.(leaf) && c < cur)
      then begin
        moved := (leaf, cur, os.sdist.(leaf)) :: !moved;
        set_server t obj leaf ~server:c ~dist:d
      end)
    os.req;
  push t (U_add { obj; node = c; moved = !moved })

let remove_copy t ~obj c =
  check_node t c;
  let os = obj_state t obj in
  if not os.has.(c) then invalid_arg "Loads.remove_copy: node holds no copy";
  if os.ncopies = 1 && Array.length os.req > 0 then
    invalid_arg "Loads.remove_copy: would leave a requested object copyless";
  steiner_remove t obj c;
  (* Orphaned leaves rescan the surviving copies in ascending order and
     keep the first strict minimum: ties to the lowest id, exactly
     [Placement.nearest]'s rule. *)
  let moved = ref [] in
  Array.iter
    (fun leaf ->
      if os.server.(leaf) = c then begin
        let s = ref (-1) and d = ref max_int in
        List.iter
          (fun u ->
            let du = Flat.distance t.fl leaf u in
            if du < !d then begin
              s := u;
              d := du
            end)
          os.copies;
        moved := (leaf, c, os.sdist.(leaf)) :: !moved;
        set_server t obj leaf ~server:!s ~dist:!d
      end)
    os.req;
  push t (U_remove { obj; node = c; moved = !moved })

let move_copy t ~obj ~src ~dst =
  if src = dst then invalid_arg "Loads.move_copy: src = dst";
  add_copy t ~obj dst;
  remove_copy t ~obj src

(* {2 Checkpoint / rollback} *)

let undo t = function
  | U_add { obj; node; moved } ->
    steiner_remove t obj node;
    List.iter (fun (leaf, s, d) -> set_server t obj leaf ~server:s ~dist:d) moved
  | U_remove { obj; node; moved } ->
    steiner_add t obj node;
    List.iter (fun (leaf, s, d) -> set_server t obj leaf ~server:s ~dist:d) moved

let checkpoint t = t.jlen

let rollback t cp =
  if cp > t.jlen then
    invalid_arg "Loads.rollback: checkpoint is ahead of the journal";
  while t.jlen > cp do
    match t.journal with
    | [] -> assert false
    | u :: rest ->
      t.journal <- rest;
      t.jlen <- t.jlen - 1;
      undo t u
  done

(* {2 Construction from copy sets} *)

let of_copies w copies =
  let t = create w in
  if Array.length copies <> Array.length t.objs then
    invalid_arg "Loads.of_copies: object count mismatch";
  Array.iteri
    (fun obj cs ->
      List.iter (fun c -> add_copy t ~obj c) (List.sort_uniq compare cs))
    copies;
  (* Construction deltas are not part of the caller's undo history. *)
  t.journal <- [];
  t.jlen <- 0;
  t

(* {2 Inspection} *)

let copies t ~obj = (obj_state t obj).copies

let has_copy t ~obj v =
  check_node t v;
  (obj_state t obj).has.(v)

let num_copies t ~obj = (obj_state t obj).ncopies

let server t ~obj leaf =
  check_node t leaf;
  let os = obj_state t obj in
  if os.server.(leaf) < 0 then None else Some os.server.(leaf)

let edge_loads t = Raw.loads t.raw

let congestion t = Raw.congestion_value t.raw

let snapshot t =
  Array.map
    (fun os ->
      if os.ncopies = 0 && Array.length os.req > 0 then
        invalid_arg "Loads.snapshot: requests but no copies";
      let assigns =
        Array.fold_right
          (fun leaf acc ->
            {
              Placement.leaf;
              server = os.server.(leaf);
              reads = os.reads.(leaf);
              writes = os.writes.(leaf);
            }
            :: acc)
          os.req []
      in
      { Placement.copies = os.copies; assigns })
    t.objs
