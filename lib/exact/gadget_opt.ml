module Partition = Hbn_workload.Partition

let family_optimum i =
  let k =
    match Partition.half i with
    | Some k -> k
    | None -> invalid_arg "Gadget_opt.family_optimum: odd item sum"
  in
  let reachable = Partition.achievable_sums i in
  let best = ref max_int in
  Array.iteri
    (fun sigma ok ->
      if ok then begin
        let c =
          max (4 * k) (max ((2 * k) + (2 * sigma)) ((6 * k) - (2 * sigma)))
        in
        if c < !best then best := c
      end)
    reachable;
  !best
