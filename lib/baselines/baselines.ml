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

let owner w =
  single_copy_per_object w (fun obj leaves ->
      let best = ref (-1) and best_w = ref (-1) in
      List.iter
        (fun leaf ->
          let h = Workload.weight w ~obj leaf in
          if h > !best_w then begin
            best := leaf;
            best_w := h
          end)
        leaves;
      !best)

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

(* One hill-climb proposal over the copy sets. The two evaluation paths
   below (incremental engine, from-scratch rebuild) share this so their
   PRNG streams and proposal sequences are identical: membership is an
   O(1) set probe, copy lists are kept in canonical ascending order, and
   a no-op proposal (removing the only copy) consumes no further PRNG
   draws — matching the original structural-compare behaviour. *)
type proposal = Remove of int | Add of int | Move of int * int

let propose ~prng ~leaves ~has ~count ~sorted obj =
  let leaf = leaves.(Prng.int prng (Array.length leaves)) in
  if has obj leaf then
    if count obj > 1 then Some (Remove leaf) else None
  else if Prng.bool prng then Some (Add leaf)
  else
    (* Move: replace a random existing copy by the new leaf. *)
    Some (Move (Prng.pick prng (sorted obj), leaf))

let active_objects ~count w =
  List.filter
    (fun obj -> count obj > 0)
    (List.init (Workload.num_objects w) (fun i -> i))

let hill_climb ~iterations ~prng w copies =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let eng = Loads.of_copies w copies in
  let count obj = Loads.num_copies eng ~obj in
  let active = active_objects ~count w in
  if active <> [] && Array.length leaves > 0 then begin
    let current = ref (Loads.congestion eng) in
    for _ = 1 to iterations do
      let obj = Prng.pick prng active in
      match
        propose ~prng ~leaves
          ~has:(fun obj l -> Loads.has_copy eng ~obj l)
          ~count
          ~sorted:(fun obj -> Loads.copies eng ~obj)
          obj
      with
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

let hill_climb_scratch ?exec ~iterations ~prng w copies =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let copies = Array.map (fun cs -> List.sort_uniq compare cs) copies in
  (* Candidate scoring is the hot path: each proposal rebuilds the
     nearest-copy assignment and re-evaluates every object's loads, both
     of which fan out per object on a parallel [exec]. *)
  let eval () =
    Placement.congestion ?exec w (Placement.nearest ?exec w ~copies)
  in
  let count obj = List.length copies.(obj) in
  let active = active_objects ~count w in
  if active <> [] && Array.length leaves > 0 then begin
    let current = ref (eval ()) in
    for _ = 1 to iterations do
      let obj = Prng.pick prng active in
      match
        propose ~prng ~leaves
          ~has:(fun obj l -> List.mem l copies.(obj))
          ~count
          ~sorted:(fun obj -> copies.(obj))
          obj
      with
      | None -> ()
      | Some p ->
        let old = copies.(obj) in
        copies.(obj) <-
          (match p with
          | Remove l -> List.filter (fun x -> x <> l) old
          | Add l -> List.sort compare (l :: old)
          | Move (src, dst) ->
            List.sort compare (dst :: List.filter (fun x -> x <> src) old));
        let c = eval () in
        if c <= !current then current := c else copies.(obj) <- old
    done
  end;
  Placement.nearest w ~copies

let local_search ?(iterations = 300) ~prng w =
  let copies =
    Array.init (Workload.num_objects w) (fun obj ->
        match Workload.requesting_leaves w ~obj with
        | [] -> []
        | leaf :: _ ->
          (* Start from the owner placement. *)
          let best = ref leaf and best_w = ref (-1) in
          List.iter
            (fun l ->
              let h = Workload.weight w ~obj l in
              if h > !best_w then begin
                best := l;
                best_w := h
              end)
            (Workload.requesting_leaves w ~obj);
          [ !best ])
  in
  hill_climb ~iterations ~prng w copies

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
