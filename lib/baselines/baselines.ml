module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Prng = Hbn_prng.Prng
module Loads = Hbn_loads.Loads

let single_copy_per_object w pick =
  let copies =
    Array.init (Workload.num_objects w) (fun obj ->
        match Workload.requesting_leaves w ~obj with
        | [] -> []
        | leaves -> [ pick obj leaves ])
  in
  Placement.nearest w ~copies

(* One copy per object on its owner ([Workload.owner]); objects without
   requests get none. *)
let owner_copies w =
  Array.init (Workload.num_objects w) (fun obj ->
      Option.to_list (Workload.owner w ~obj))

let owner w = Placement.nearest w ~copies:(owner_copies w)

let gravity_leaf w =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  single_copy_per_object w (fun obj leaves ->
      let weights = Workload.weight_vector w ~obj in
      let g = Nibble.gravity_center tree ~weights in
      let best = ref (-1) and best_d = ref max_int in
      List.iter
        (fun leaf ->
          let d = Flat.distance fl leaf g in
          if d < !best_d then begin
            best := leaf;
            best_d := d
          end)
        leaves;
      !best)

let random_leaf ~prng w =
  single_copy_per_object w (fun _ leaves -> Prng.pick prng leaves)

let full_replication = Placement.full_replication

(* One hill-climb proposal over the copy sets: a random processor is
   removed if it holds a copy, otherwise added or moved onto from a
   random copy. Copy lists are in ascending order, and a no-op proposal
   (removing the only copy) consumes no further PRNG draws. The
   from-scratch oracle in the tests replays this draw for draw. *)
type proposal = Remove of int | Add of int | Move of int * int

let propose ~prng ~leaves eng ~obj =
  let leaf = leaves.(Prng.int prng (Array.length leaves)) in
  if Loads.has_copy eng ~obj leaf then
    if Loads.num_copies eng ~obj > 1 then Some (Remove leaf) else None
  else if Prng.bool prng then Some (Add leaf)
  else
    (* Move: replace a random existing copy by the new leaf. *)
    Some (Move (Prng.pick prng (Loads.copies eng ~obj), leaf))

let hill_climb ~iterations ~prng w copies =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let eng = Loads.of_copies w copies in
  let active =
    List.filter
      (fun obj -> Loads.num_copies eng ~obj > 0)
      (List.init (Workload.num_objects w) Fun.id)
  in
  if active <> [] && Array.length leaves > 0 then begin
    let current = ref (Loads.congestion eng) in
    for _ = 1 to iterations do
      let obj = Prng.pick prng active in
      match propose ~prng ~leaves eng ~obj with
      | None -> ()
      | Some p ->
        let cp = Loads.checkpoint eng in
        (match p with
        | Remove l -> Loads.remove_copy eng ~obj l
        | Add l -> Loads.add_copy eng ~obj l
        | Move (src, dst) -> Loads.move_copy eng ~obj ~src ~dst);
        let c = Loads.congestion eng in
        if c <= !current then current := c else Loads.rollback eng cp
    done
  end;
  Loads.snapshot eng

let local_search ?(iterations = 300) ~prng w =
  hill_climb ~iterations ~prng w (owner_copies w)

let polish ?(iterations = 300) ~prng w placement =
  let tree = Workload.tree w in
  if not (Placement.leaf_only tree placement) then
    invalid_arg "Baselines.polish: placement must be leaf-only";
  let copies =
    Array.init (Workload.num_objects w) (fun obj ->
        Placement.copies placement ~obj)
  in
  let improved = hill_climb ~iterations ~prng w copies in
  (* The climb works on nearest-copy assignments, which may differ from
     the input's (possibly forwarded) assignments; keep the input when
     nothing better was found so the guarantee is monotone. *)
  if Placement.congestion w improved <= Placement.congestion w placement then
    improved
  else placement
