(* Reference oracle for the strategy's ablations: the hand-written
   pipeline experiment E14 ran before the variants moved into Strategy.
   It builds its own raw stages, bypass, Step 3 call and placements, and
   finds each bus copy's nearest processor by BFS. The tests check that
   [Strategy.naive_nearest_leaf] and [Strategy.skip_deletion] return
   exactly what these return. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Mapping = Hbn_core.Mapping
module Placement_ref = Hbn_ref.Placement_ref

let nearest_leaf tree node =
  if Tree.is_leaf tree node then node
  else begin
    let seen = Array.make (Tree.n tree) false in
    let queue = Queue.create () in
    Queue.add node queue;
    seen.(node) <- true;
    let found = ref (-1) in
    while !found < 0 && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if Tree.is_leaf tree v then found := v
      else
        Array.iter
          (fun (u, _) ->
            if not seen.(u) then begin
              seen.(u) <- true;
              Queue.add u queue
            end)
          (Tree.neighbors tree v)
    done;
    !found
  end

let naive_nearest_leaf w =
  let tree = Workload.tree w in
  let sets = Nibble.place_all w in
  Placement_ref.of_lists @@ Array.map
    (fun cs ->
      if cs.Nibble.nodes = [] then { Placement_ref.copies = []; assigns = [] }
      else begin
        let groups = Nibble.served_groups w cs in
        let assigns = ref [] in
        let copies = ref [] in
        List.iteri
          (fun i node ->
            let home = nearest_leaf tree node in
            copies := home :: !copies;
            List.iter
              (fun g ->
                if Nibble.group_weight g > 0 then
                  assigns :=
                    {
                      Placement_ref.leaf = g.Nibble.leaf;
                      server = home;
                      reads = g.Nibble.reads;
                      writes = g.Nibble.writes;
                    }
                    :: !assigns)
              groups.(i))
          cs.Nibble.nodes;
        {
          Placement_ref.copies = List.sort_uniq compare !copies;
          assigns = List.rev !assigns;
        }
      end)
    sets

type skip_deletion_outcome = Mapped of Placement.t | Stuck of { node : int }

let skip_deletion w =
  let tree = Workload.tree w in
  let sets = Nibble.place_all w in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Raw nibble copies: one per component node, nearest-copy service, no
     deletion, no splitting. Degenerate objects are handled as in the
     full strategy so the ablation isolates Step 2 only. *)
  let stages =
    Array.map
      (fun cs ->
        let obj = cs.Nibble.obj in
        if Workload.total_weight w ~obj = 0 then `Unused
        else if Workload.write_contention w ~obj = 0 then
          `Read_only (Workload.requesting_leaves w ~obj)
        else begin
          let groups = Nibble.served_groups w cs in
          let kappa = Workload.write_contention w ~obj in
          `Copies
            (List.mapi
               (fun i node ->
                 Copy.make ~id:(fresh ()) ~obj ~kappa ~node groups.(i))
               cs.Nibble.nodes)
        end)
      sets
  in
  let all_copies =
    Array.to_list stages
    |> List.concat_map (function `Copies cs -> cs | `Unused | `Read_only _ -> [])
  in
  let movable =
    List.filter (fun c -> not (Tree.is_leaf tree c.Copy.node)) all_copies
  in
  let build () = Placement_ref.of_stages w ~node:(fun c -> c.Copy.node) stages in
  match movable with
  | [] -> Mapped (build ())
  | _ :: _ -> (
    let basic_up, basic_down = Mapping.basic_loads tree all_copies in
    match Mapping.run tree ~basic_up ~basic_down ~movable with
    | Ok _ -> Mapped (build ())
    | Error (Mapping.No_free_edge { node; _ }) -> Stuck { node }
    | Error (Mapping.Copy_on_bus _) ->
      (* A run that finds a free edge for every held copy ends with
         every copy on a processor. *)
      assert false)
