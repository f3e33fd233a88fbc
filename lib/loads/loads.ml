module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Marks = Hbn_tree.Marks
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

  let load t e = t.loads.(e)

  let loads t = Array.copy t.loads

  let total t = Array.fold_left ( + ) 0 t.loads

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

  let evaluate t = Placement.congestion_of_edge_loads t.tree (Array.copy t.loads)
end

(* Undo-journal entries. [moved] records, per reassigned leaf, the server
   and server distance it had before the operation; the copy-set and
   Steiner bookkeeping is inverted structurally (the low-level add/remove
   are exact inverses of each other on [below]/[ncopies]/marks). *)
type undo =
  | U_add of { obj : int; node : int; moved : (int * int * int) list }
  | U_remove of { obj : int; node : int; moved : (int * int * int) list }
  | U_reassign of { obj : int; leaf : int; server : int; dist : int }

type obj_state = {
  marks : Marks.t;  (* marked = nodes holding a copy *)
  below : int array;  (* per edge: copies strictly on the child side *)
  server : int array;  (* per node: serving copy; -1 = unassigned *)
  sdist : int array;  (* distance to [server]; -1 when unassigned *)
  reads : int array;
  writes : int array;
  amount : int array;  (* reads + writes, cached *)
  req : int array;  (* requesting leaves, ascending *)
  total_writes : int;  (* κ_x: one Steiner-tree broadcast per write *)
  mutable ncopies : int;
  mutable anchor : int;  (* any current copy; -1 when the set is empty *)
}

type hook =
  obj:int -> component:Placement.component -> edge:int -> amount:int -> unit

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
  mutable hook : hook option;
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
          marks = Marks.create (Tree.rooting tree);
          below = Array.make m 0;
          server = Array.make n (-1);
          sdist = Array.make n (-1);
          reads;
          writes;
          amount = Array.init n (fun v -> reads.(v) + writes.(v));
          req = Array.of_list (Workload.requesting_leaves w ~obj);
          total_writes = Workload.write_contention w ~obj;
          ncopies = 0;
          anchor = -1;
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
    hook = None;
  }

let workload t = t.w

let set_hook t hook = t.hook <- hook

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
   the root path of any surviving copy (the anchor). Re-evaluating the
   membership contribution on the union of the two root paths therefore
   covers every edge whose write-broadcast load can change: O(height). *)

let member os e n = os.below.(e) > 0 && os.below.(e) < n

(* A write-broadcast (Steiner-membership) load delta, mirrored to the
   attribution hook. *)
let steiner_load t o e amount =
  Raw.add t.raw e amount;
  match t.hook with
  | None -> ()
  | Some h -> h ~obj:o ~component:Placement.Write_steiner ~edge:e ~amount

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

let iter_affected t f =
  (* Reversed fill order: the order the list-building implementation
     historically visited, kept so hook deltas replay identically. *)
  for i = t.esp - 1 downto 0 do
    f t.estack.(i)
  done

(* Low-level add of copy [c]: marks, [below], anchor and Steiner loads.
   Assignments are the caller's business. *)
let steiner_add t o c =
  let os = t.objs.(o) in
  let n_new = os.ncopies + 1 in
  if os.total_writes > 0 then begin
    affected_edges t ~node:c ~other:os.anchor;
    let wts = os.total_writes in
    iter_affected t (fun e ->
        if member os e os.ncopies then steiner_load t o e (-wts));
    Flat.iter_path_to_root t.fl c (fun e -> os.below.(e) <- os.below.(e) + 1);
    os.ncopies <- n_new;
    iter_affected t (fun e -> if member os e n_new then steiner_load t o e wts)
  end
  else begin
    Flat.iter_path_to_root t.fl c (fun e -> os.below.(e) <- os.below.(e) + 1);
    os.ncopies <- n_new
  end;
  Marks.mark os.marks c;
  os.anchor <- c

let steiner_remove t o c =
  let os = t.objs.(o) in
  Marks.unmark os.marks c;
  let new_anchor =
    if os.ncopies = 1 then -1
    else
      match Marks.nearest os.marks c with
      | Some (u, _) -> u
      | None -> assert false
  in
  let n_new = os.ncopies - 1 in
  if os.total_writes > 0 then begin
    affected_edges t ~node:c ~other:new_anchor;
    let wts = os.total_writes in
    iter_affected t (fun e ->
        if member os e os.ncopies then steiner_load t o e (-wts));
    Flat.iter_path_to_root t.fl c (fun e -> os.below.(e) <- os.below.(e) - 1);
    os.ncopies <- n_new;
    iter_affected t (fun e -> if member os e n_new then steiner_load t o e wts)
  end
  else begin
    Flat.iter_path_to_root t.fl c (fun e -> os.below.(e) <- os.below.(e) - 1);
    os.ncopies <- n_new
  end;
  os.anchor <- new_anchor

(* Point a leaf's requests at [server] (or [-1] to clear), moving its
   path load. The hook sees the same per-edge deltas split into read and
   write components (the engine's [amount] is their sum). *)
let set_server t o leaf ~server ~dist =
  let os = t.objs.(o) in
  let amt = os.amount.(leaf) in
  let rd = os.reads.(leaf) and wr = os.writes.(leaf) in
  let apply target sign =
    if target >= 0 && amt <> 0 then
      Flat.iter_path_unordered t.fl leaf target (fun e ->
          Raw.add t.raw e (sign * amt);
          match t.hook with
          | None -> ()
          | Some h ->
            if rd <> 0 then
              h ~obj:o ~component:Placement.Read_path ~edge:e
                ~amount:(sign * rd);
            if wr <> 0 then
              h ~obj:o ~component:Placement.Write_path ~edge:e
                ~amount:(sign * wr))
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
  if Marks.is_marked os.marks c then
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
  if not (Marks.is_marked os.marks c) then
    invalid_arg "Loads.remove_copy: node holds no copy";
  if os.ncopies = 1 && Array.length os.req > 0 then
    invalid_arg "Loads.remove_copy: would leave a requested object copyless";
  steiner_remove t obj c;
  let moved = ref [] in
  Array.iter
    (fun leaf ->
      if os.server.(leaf) = c then begin
        match Marks.nearest os.marks leaf with
        | Some (s, d) ->
          moved := (leaf, c, os.sdist.(leaf)) :: !moved;
          set_server t obj leaf ~server:s ~dist:d
        | None -> assert false
      end)
    os.req;
  push t (U_remove { obj; node = c; moved = !moved })

let move_copy t ~obj ~src ~dst =
  if src = dst then invalid_arg "Loads.move_copy: src = dst";
  add_copy t ~obj dst;
  remove_copy t ~obj src

let reassign t ~obj ~leaf ~server =
  check_node t leaf;
  check_node t server;
  let os = obj_state t obj in
  if not (Marks.is_marked os.marks server) then
    invalid_arg "Loads.reassign: server holds no copy";
  if os.server.(leaf) < 0 then
    invalid_arg "Loads.reassign: leaf has no requests for this object";
  push t
    (U_reassign { obj; leaf; server = os.server.(leaf); dist = os.sdist.(leaf) });
  set_server t obj leaf ~server ~dist:(Flat.distance t.fl leaf server)

(* {2 Checkpoint / rollback} *)

let undo t = function
  | U_add { obj; node; moved } ->
    steiner_remove t obj node;
    List.iter (fun (leaf, s, d) -> set_server t obj leaf ~server:s ~dist:d) moved
  | U_remove { obj; node; moved } ->
    steiner_add t obj node;
    List.iter (fun (leaf, s, d) -> set_server t obj leaf ~server:s ~dist:d) moved
  | U_reassign { obj; leaf; server; dist } ->
    set_server t obj leaf ~server ~dist

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

let copies t ~obj = Marks.marked (obj_state t obj).marks

let has_copy t ~obj v =
  check_node t v;
  Marks.is_marked (obj_state t obj).marks v

let num_copies t ~obj = (obj_state t obj).ncopies

let server t ~obj leaf =
  check_node t leaf;
  let os = obj_state t obj in
  if os.server.(leaf) < 0 then None else Some os.server.(leaf)

let edge_loads t = Raw.loads t.raw

let total_load t = Raw.total t.raw

let congestion t = Raw.congestion_value t.raw

let evaluate t = Raw.evaluate t.raw

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
      { Placement.copies = Marks.marked os.marks; assigns })
    t.objs
