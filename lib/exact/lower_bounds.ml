module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble

let single_object w =
  let tree = Workload.tree w in
  let best = ref 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    let kappa = Workload.write_contention w ~obj in
    if kappa > 0 then begin
      let heaviest = ref 0 and total = ref 0 in
      List.iter
        (fun leaf ->
          let h = Workload.weight w ~obj leaf in
          total := !total + h;
          if h > !heaviest then heaviest := h)
        (Tree.leaves tree);
      best := max !best (min kappa (!total - !heaviest))
    end
  done;
  float_of_int !best

let combined w =
  Float.max (Placement.congestion w (Nibble.placement w)) (single_object w)
