(* Reference oracle for [Baselines.hill_climb]: the same climb with every
   proposal priced from scratch — [Placement.nearest] rebuilt and the whole
   workload re-evaluated — where the library applies deltas to one
   incremental load engine and rolls them back. It carries its own copy of
   the proposal step, so equal placements for the same seed also check
   the engine climb's proposal stream (PRNG draws and their order).
   [bench/loads.exe] times it against the engine climb. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Prng = Hbn_prng.Prng

(* One proposal on [obj]'s ascending copy list: a random processor is
   removed if it holds a copy (unless it is the only one, which draws
   nothing further), otherwise added or swapped in for a random copy. *)
let propose ~prng ~leaves copies =
  let leaf = leaves.(Prng.int prng (Array.length leaves)) in
  if List.mem leaf copies then
    if List.length copies > 1 then Some (List.filter (fun x -> x <> leaf) copies)
    else None
  else if Prng.bool prng then Some (List.sort compare (leaf :: copies))
  else
    let src = Prng.pick prng copies in
    Some (List.sort compare (leaf :: List.filter (fun x -> x <> src) copies))

let hill_climb_scratch ~iterations ~prng w copies =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let copies = Array.map (fun cs -> List.sort_uniq compare cs) copies in
  let eval () = Placement.congestion w (Placement.nearest w ~copies) in
  let active =
    List.filter
      (fun obj -> copies.(obj) <> [])
      (List.init (Workload.num_objects w) Fun.id)
  in
  if active <> [] && Array.length leaves > 0 then begin
    let current = ref (eval ()) in
    for _ = 1 to iterations do
      let obj = Prng.pick prng active in
      match propose ~prng ~leaves copies.(obj) with
      | None -> ()
      | Some next ->
        let old = copies.(obj) in
        copies.(obj) <- next;
        let c = eval () in
        if c <= !current then current := c else copies.(obj) <- old
    done
  end;
  Placement.nearest w ~copies
