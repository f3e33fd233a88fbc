module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Exec = Hbn_exec.Exec
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

type result = {
  placement : Placement.t;
  nibble_sets : Nibble.copy_set array;
  tau_max : int;
  mapping : Mapping.stats option;
  deletions : int;
  splits : int;
  mapped_objects : int list;
  copies : Copy.t list;
}

(* Per-object intermediate state after Step 2. *)
type stage =
  | Unused
  | Read_only of int list  (* requesting leaves; copies serve locally *)
  | Copies of Copy.t list

(* One object's placement from its stage: its copies' positions, and per
   copy in order each of its groups with requests. A count pass sizes the
   arrays, a second fills them. *)
let object_placement w ~node ~obj = function
  | Unused -> Placement.empty
  | Read_only leaves ->
    let leaf = Array.of_list leaves in
    {
      Placement.copies = leaf;
      leaf;
      server = leaf;
      reads = Array.map (Workload.reads w ~obj) leaf;
      writes = Array.map (Workload.writes w ~obj) leaf;
    }
  | Copies cs ->
    let k = ref 0 in
    List.iter
      (fun c ->
        List.iter
          (fun g -> if Nibble.group_weight g <> 0 then incr k)
          c.Copy.groups)
      cs;
    let leaf = Array.make !k 0
    and server = Array.make !k 0
    and reads = Array.make !k 0
    and writes = Array.make !k 0 in
    let i = ref 0 in
    List.iter
      (fun c ->
        let v = node c in
        List.iter
          (fun g ->
            if Nibble.group_weight g <> 0 then begin
              leaf.(!i) <- g.Nibble.leaf;
              server.(!i) <- v;
              reads.(!i) <- g.Nibble.reads;
              writes.(!i) <- g.Nibble.writes;
              incr i
            end)
          c.Copy.groups)
      cs;
    let copies = Array.of_list (List.sort_uniq Int.compare (List.map node cs)) in
    { Placement.copies; leaf; server; reads; writes }

(* Building the placement is pure (all copy mutation is over by the time
   this runs), so it fans out too. [node] reads a copy's position: where
   it is now, or where Step 2 left it. *)
let placement_of_stages ?exec w ~node stages =
  Exec.map
    (Option.value exec ~default:Exec.sequential)
    (Array.length stages)
    (fun obj -> object_placement w ~node ~obj stages.(obj))

(* Objects without requests and write-free objects bypass Step 2. *)
let bypass w ~obj =
  let wf = Workload.flat w in
  if Workload.Flat.total_weight wf ~obj = 0 then Some Unused
  else if Workload.Flat.kappa wf ~obj = 0 then
    Some (Read_only (Workload.requesting_leaves w ~obj))
  else None

(* The pure per-object stage of Step 2: local ids from 0, no shared state,
   no tracing — safe on any domain. The sequential merge below renumbers
   ids into one global sequence and emits the per-object trace events. *)
let stage_object ~scratch w cs =
  match bypass w ~obj:cs.Nibble.obj with
  | Some stage -> (stage, 0, 0, 0)
  | None ->
    let outcome = Deletion.run ~scratch w cs in
    ( Copies outcome.Deletion.copies,
      outcome.Deletion.deletions,
      outcome.Deletion.splits,
      outcome.Deletion.ids_used )

(* Step 3 over staged copies: every object that still holds a bus copy
   has its copies mapped to processors (only the bus copies unless
   [move_leaf_copies]); the others keep their placement. Returns every
   staged copy in object order, the mapped objects, and the
   [Mapping.run] outcome ([Ok None] when nothing needed mapping). *)
let map_stages ?(move_leaf_copies = false) ?on_mapping_round tree stages =
  let all_copies =
    Array.to_list stages
    |> List.concat_map (function Copies cs -> cs | Unused | Read_only _ -> [])
  in
  let on_bus c = not (Tree.is_leaf tree c.Copy.node) in
  let mapped_objects = ref [] in
  let movable =
    Array.to_list stages
    |> List.mapi (fun obj stage -> (obj, stage))
    |> List.concat_map (fun (obj, stage) ->
           match stage with
           | Copies cs when List.exists on_bus cs ->
             mapped_objects := obj :: !mapped_objects;
             if move_leaf_copies then cs else List.filter on_bus cs
           | Unused | Read_only _ | Copies _ -> [])
  in
  let mapping =
    match movable with
    | [] -> Ok None
    | _ :: _ ->
      let basic_up, basic_down = Mapping.basic_loads tree all_copies in
      Result.map Option.some
        (Mapping.run ?on_round:on_mapping_round tree ~basic_up ~basic_down
           ~movable)
  in
  (all_copies, List.rev !mapped_objects, mapping)

let run ?(move_leaf_copies = false) ?on_mapping_round ?(exec = Exec.sequential)
    w =
  let sp_run = Trace.span "strategy.run" in
  let tree = Workload.tree w in
  (* Force the shared flat structures before fanning out: the tasks then
     only read immutable arrays, through one scratch per executor slot. *)
  let num_objects = Workload.num_objects w in
  ignore (Workload.flat w);
  let fl = Flat.of_tree tree in
  let scratches =
    Array.init (Exec.jobs exec) (fun _ -> Flat.Scratch.create fl)
  in
  let scratch () = scratches.(Exec.current_worker ()) in
  let sp_nibble = Trace.span "strategy.nibble" in
  let sets =
    Exec.map exec num_objects (fun obj ->
        Nibble.place ~scratch:(scratch ()) w ~obj)
  in
  if Trace.enabled () then
    Trace.finish sp_nibble
      ~attrs:
        [
          ("objects", Sink.Int (Array.length sets));
          ( "copies",
            Sink.Int
              (Array.fold_left
                 (fun a cs -> a + List.length cs.Nibble.nodes)
                 0 sets) );
        ];
  let sp_deletion = Trace.span "strategy.deletion" in
  let staged =
    Exec.map exec num_objects (fun obj ->
        stage_object ~scratch:(scratch ()) w sets.(obj))
  in
  (* Deterministic merge, in object order: global totals, copy-id
     renumbering (bit-identical to the old shared-counter allocation at
     any job count), and the per-object trace events. *)
  let deletions = ref 0 and splits = ref 0 in
  let next_id = ref 0 in
  let stages =
    Array.mapi
      (fun obj (stage, dels, spls, ids_used) ->
        deletions := !deletions + dels;
        splits := !splits + spls;
        let stage =
          match stage with
          | Unused | Read_only _ -> stage
          | Copies cs ->
            let base = !next_id in
            Copies (List.map (fun c -> { c with Copy.id = base + c.Copy.id }) cs)
        in
        next_id := !next_id + ids_used;
        (if Trace.enabled () then
           match stage with
           | Unused | Read_only _ -> ()
           | Copies cs ->
             Trace.count ~by:dels "deletion.deleted";
             Trace.count ~by:spls "deletion.split_clones";
             Trace.event "deletion.object"
               ~attrs:
                 [
                   ("obj", Sink.Int obj);
                   ("kappa", Sink.Int (Workload.write_contention w ~obj));
                   ("deletions", Sink.Int dels);
                   ("splits", Sink.Int spls);
                   ("survivors", Sink.Int (List.length cs));
                 ]);
        stage)
      staged
  in
  if Trace.enabled () then
    Trace.finish sp_deletion
      ~attrs:
        [
          ("deletions", Sink.Int !deletions);
          ("splits", Sink.Int !splits);
        ];
  let sp_mapping = Trace.span "strategy.mapping" in
  let all_copies, mapped_objects, mapping =
    match map_stages ~move_leaf_copies ?on_mapping_round tree stages with
    | all_copies, mapped_objects, Ok mapping ->
      (all_copies, mapped_objects, mapping)
    | _, _, Error _ ->
      (* Unreachable: Step 2 leaves every copy with s(c) >= κ_x, so the
         corrected Invariant 4.2 holds initially and every round keeps
         it; by Lemma 4.1 each bus then has a free child edge for each
         copy it holds, so no copy gets stuck or stays on a bus. *)
      assert false
  in
  if Trace.enabled () then
    Trace.finish sp_mapping
      ~attrs:
        (let tau, up, down =
           match mapping with
           | None -> (0, 0, 0)
           | Some s -> (s.Mapping.tau_max, s.Mapping.moves_up, s.Mapping.moves_down)
         in
         [
           ("tau_max", Sink.Int tau);
           ("mapped_objects", Sink.Int (List.length mapped_objects));
           ("moves_up", Sink.Int up);
           ("moves_down", Sink.Int down);
         ]);
  let placement =
    placement_of_stages ~exec w ~node:(fun c -> c.Copy.node) stages
  in
  let result =
    {
      placement;
      nibble_sets = sets;
      tau_max = (match mapping with None -> 0 | Some s -> s.Mapping.tau_max);
      mapping;
      deletions = !deletions;
      splits = !splits;
      mapped_objects;
      copies = all_copies;
    }
  in
  if Trace.enabled () then begin
    Trace.count ~by:result.deletions "strategy.deletions";
    Trace.count ~by:result.splits "strategy.splits";
    Trace.finish sp_run
      ~attrs:
        [
          ("deletions", Sink.Int result.deletions);
          ("splits", Sink.Int result.splits);
          ("tau_max", Sink.Int result.tau_max);
          ("mapped_objects", Sink.Int (List.length result.mapped_objects));
        ]
  end;
  result

let nibble_placement ?exec w res =
  Placement.nearest ?exec w
    ~copies:(Array.map (fun cs -> cs.Nibble.nodes) res.nibble_sets)

let modified_placement ?exec w res =
  let per_object = Array.make (Workload.num_objects w) [] in
  List.iter
    (fun c -> per_object.(c.Copy.obj) <- c :: per_object.(c.Copy.obj))
    (List.rev res.copies);
  placement_of_stages ?exec w ~node:(fun c -> c.Copy.origin)
    (Array.init (Workload.num_objects w) (fun obj ->
         match bypass w ~obj with
         | Some stage -> stage
         | None -> Copies per_object.(obj)))

(* -- Ablations (experiment E14) ------------------------------------- *)

(* Step 1 with Step 2 skipped: an object gets the stage [degenerate]
   gives it, else one raw copy per nibble node, at [home node], serving
   the node's groups; ids in sequence in object order. *)
let raw_stages w ~degenerate ~home =
  let next_id = ref 0 in
  Array.map
    (fun cs ->
      match degenerate cs with
      | Some stage -> stage
      | None ->
        let obj = cs.Nibble.obj in
        let groups = Nibble.served_groups w cs in
        let kappa = Workload.write_contention w ~obj in
        Copies
          (List.mapi
             (fun i v ->
               let id = !next_id in
               incr next_id;
               Copy.make ~id ~obj ~kappa ~node:(home v) groups.(i))
             cs.Nibble.nodes))
    (Nibble.place_all w)

(* The first processor a BFS from [node] dequeues. *)
let nearest_leaf tree node =
  let seen = Array.make (Tree.n tree) false in
  let queue = Queue.create () in
  let visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Queue.add v queue
    end
  in
  visit node;
  let rec go () =
    let v = Queue.pop queue in
    if Tree.is_leaf tree v then v
    else begin
      Array.iter (fun (u, _) -> visit u) (Tree.neighbors tree v);
      go ()
    end
  in
  go ()

let naive_nearest_leaf w =
  placement_of_stages w ~node:(fun c -> c.Copy.node)
    (raw_stages w ~home:(nearest_leaf (Workload.tree w)) ~degenerate:(fun cs ->
         if cs.Nibble.nodes = [] then Some Unused else None))

type skip_deletion_outcome = Mapped of Placement.t | Stuck of { node : int }

let skip_deletion w =
  let stages =
    raw_stages w ~home:Fun.id ~degenerate:(fun cs ->
        bypass w ~obj:cs.Nibble.obj)
  in
  match map_stages (Workload.tree w) stages with
  | _, _, Ok _ ->
    Mapped (placement_of_stages w ~node:(fun c -> c.Copy.node) stages)
  | _, _, Error (Mapping.No_free_edge { node; _ }) -> Stuck { node }
  | _, _, Error (Mapping.Copy_on_bus _) ->
    (* A run that finds a free edge for every held copy ends with every
       copy on a processor. *)
    assert false
