module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Tree = Hbn_tree.Tree

type outcome = {
  placement : Placement.t;
  relocations : int;
  merges : int;
}

(* Ends the eviction pass early; [apply] returns its message as the
   [Error]. *)
exception Infeasible of string

let usage tree p =
  let u = Array.make (Tree.n tree) 0 in
  Array.iter
    (fun op ->
      Array.iter (fun v -> u.(v) <- u.(v) + 1) op.Placement.copies)
    p;
  u

let respects tree ~capacity p =
  let u = usage tree p in
  let ok = ref true in
  List.iter (fun v -> if u.(v) > capacity v then ok := false) (Tree.leaves tree);
  !ok

(* Requests served at [server] for object [obj] in placement [p]. *)
let served_at p ~obj server =
  let op = p.(obj) in
  let acc = ref 0 in
  Array.iteri
    (fun i s ->
      if s = server then
        acc := !acc + op.Placement.reads.(i) + op.Placement.writes.(i))
    op.Placement.server;
  !acc

let reassign op ~from ~to_ =
  {
    op with
    Placement.copies =
      Array.of_list
        (List.sort_uniq Int.compare
           (to_ :: List.filter (fun c -> c <> from)
                     (Array.to_list op.Placement.copies)));
    server = Array.map (fun s -> if s = from then to_ else s) op.Placement.server;
  }

(* The eviction pass over a leaf-only placement and non-negative
   capacities; raises [Infeasible]. *)
let evict w ~capacity p =
  let tree = Workload.tree w in
  let p = Array.map (fun op -> op) p in
  let u = usage tree p in
  let relocations = ref 0 and merges = ref 0 in
  let has_copy obj v = Array.mem v p.(obj).Placement.copies in
  (* Nearest destination by BFS: a leaf already holding the object
     (merge) or a leaf with a free slot (relocate). *)
  let bfs_find from pred =
    let seen = Array.make (Tree.n tree) false in
    let queue = Queue.create () in
    Queue.add from queue;
    seen.(from) <- true;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if v <> from && Tree.is_leaf tree v then found := pred v;
      if !found = None then
        Array.iter
          (fun (x, _) ->
            if not seen.(x) then begin
              seen.(x) <- true;
              Queue.add x queue
            end)
          (Tree.neighbors tree v)
    done;
    !found
  in
  let copy_count obj = Array.length p.(obj).Placement.copies in
  let destination obj from =
    let direct =
      bfs_find from (fun v ->
          if has_copy obj v then Some (`Merge v)
          else if u.(v) < capacity v then Some (`Move v)
          else None)
    in
    match direct with
    | Some _ as d -> d
    | None ->
      (* Make room: find the nearest full leaf hosting a redundant copy
         of some other object; merging that copy away frees a slot. *)
      bfs_find from (fun v ->
          if has_copy obj v || capacity v = 0 then None
          else
            let redundant =
              List.find_opt
                (fun o -> o <> obj && has_copy o v && copy_count o >= 2)
                (List.init (Workload.num_objects w) Fun.id)
            in
            match redundant with
            | Some o -> Some (`Make_room (v, o))
            | None -> None)
  in
  List.iter
    (fun leaf ->
      let cap = capacity leaf in
      if u.(leaf) > cap then begin
        (* Evict the copies serving the fewest requests here. *)
        let holders =
          List.filter
            (fun obj -> has_copy obj leaf)
            (List.init (Workload.num_objects w) Fun.id)
        in
        let ranked =
          List.sort
            (fun a b ->
              compare (served_at p ~obj:a leaf) (served_at p ~obj:b leaf))
            holders
        in
        let excess = u.(leaf) - cap in
        let victims = List.filteri (fun i _ -> i < excess) ranked in
        List.iter
          (fun obj ->
            match destination obj leaf with
            | None ->
              raise
                (Infeasible
                   (Printf.sprintf
                      "no processor can host object %d evicted from %d" obj
                      leaf))
            | Some (`Merge v) ->
              p.(obj) <- reassign p.(obj) ~from:leaf ~to_:v;
              u.(leaf) <- u.(leaf) - 1;
              incr merges
            | Some (`Move v) ->
              p.(obj) <- reassign p.(obj) ~from:leaf ~to_:v;
              u.(leaf) <- u.(leaf) - 1;
              u.(v) <- u.(v) + 1;
              incr relocations
            | Some (`Make_room (v, other)) ->
              (* Fold [other]'s redundant copy on [v] into its nearest
                 remaining copy, then move [obj] into the freed slot. *)
              let target =
                match
                  bfs_find v (fun x ->
                      if x <> v && has_copy other x then Some x else None)
                with
                | Some x -> x
                | None -> assert false (* copy_count other >= 2 *)
              in
              p.(other) <- reassign p.(other) ~from:v ~to_:target;
              u.(v) <- u.(v) - 1;
              incr merges;
              p.(obj) <- reassign p.(obj) ~from:leaf ~to_:v;
              u.(leaf) <- u.(leaf) - 1;
              u.(v) <- u.(v) + 1;
              incr relocations)
          victims
      end)
    (Tree.leaves tree);
  { placement = p; relocations = !relocations; merges = !merges }

let apply w ~capacity p =
  let tree = Workload.tree w in
  if not (Placement.leaf_only tree p) then
    invalid_arg "Capacitated.apply: placement must be leaf-only";
  match List.find_opt (fun v -> capacity v < 0) (Tree.leaves tree) with
  | Some v ->
    Error (Printf.sprintf "negative capacity %d at processor %d" (capacity v) v)
  | None -> (
    match evict w ~capacity p with
    | out -> Ok out
    | exception Infeasible msg -> Error msg)
