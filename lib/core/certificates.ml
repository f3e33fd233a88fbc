module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* The checks read the Step 1 and Step 2 placements, which the strategy
   result does not keep: [check_all] derives them once and passes them to
   each check; the single-check entry points derive what they read. *)

let valid w (res : Strategy.result) ~nibble ~modified =
  let tree = Workload.tree w in
  let* () = Placement.validate w nibble in
  let* () = Placement.validate w modified in
  let* () = Placement.validate w res.Strategy.placement in
  if Placement.leaf_only tree res.Strategy.placement then Ok ()
  else Error "final placement stores a copy on a bus"

let check_valid w res =
  valid w res ~nibble:(Strategy.nibble_placement w res)
    ~modified:(Strategy.modified_placement w res)

let observation_3_2 w (res : Strategy.result) ~nibble ~modified =
  let per_copy =
    List.fold_left
      (fun acc c ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if c.Copy.kappa > 0 then
            if c.Copy.served < c.Copy.kappa then
              Error
                (Printf.sprintf "copy#%d serves %d < kappa=%d" c.Copy.id
                   c.Copy.served c.Copy.kappa)
            else if c.Copy.served > 2 * c.Copy.kappa then
              Error
                (Printf.sprintf "copy#%d serves %d > 2*kappa=%d" c.Copy.id
                   c.Copy.served (2 * c.Copy.kappa))
            else Ok ()
          else Ok ())
      (Ok ()) res.Strategy.copies
  in
  let* () = per_copy in
  let rec per_object obj =
    if obj >= Workload.num_objects w then Ok ()
    else begin
      let nib = Placement.edge_loads w [| nibble.(obj) |] in
      let del = Placement.edge_loads w [| modified.(obj) |] in
      let bad = ref None in
      Array.iteri
        (fun e l ->
          if l > 2 * nib.(e) && !bad = None then
            bad :=
              Some
                (Printf.sprintf
                   "object %d edge %d: modified load %d > 2*nibble %d" obj e l
                   nib.(e)))
        del;
      match !bad with Some msg -> Error msg | None -> per_object (obj + 1)
    end
  in
  per_object 0

let check_observation_3_2 w res =
  observation_3_2 w res ~nibble:(Strategy.nibble_placement w res)
    ~modified:(Strategy.modified_placement w res)

let lemma_4_5 (res : Strategy.result) ~final ~nib =
  let tau = res.Strategy.tau_max in
  let bad = ref None in
  Array.iteri
    (fun e l ->
      let bound = (4 * nib.Placement.edge_loads.(e)) + tau in
      if l > bound && !bad = None then
        bad :=
          Some
            (Printf.sprintf "edge %d: load %d > 4*Lnib + tau = %d" e l bound))
    final.Placement.edge_loads;
  match !bad with Some msg -> Error msg | None -> Ok ()

let lemma_4_6 w (res : Strategy.result) ~final ~nib =
  let tree = Workload.tree w in
  let tau = res.Strategy.tau_max in
  let bad = ref None in
  List.iter
    (fun b ->
      (* Bus loads are stored doubled to stay integral; the bound doubles
         accordingly: 2·L(v) <= 4·(2·Lnib(v)) / 2 ... i.e. compare
         loads2 against 4*nib_loads2 + 2*tau. *)
      let bound = (4 * nib.Placement.bus_loads2.(b)) + (2 * tau) in
      if final.Placement.bus_loads2.(b) > bound && !bad = None then
        bad :=
          Some
            (Printf.sprintf "bus %d: 2*load %d > 2*(4*Lnib(v) + tau) = %d" b
               final.Placement.bus_loads2.(b) bound))
    (Tree.buses tree);
  match !bad with Some msg -> Error msg | None -> Ok ()

let final_and_nibble_loads w (res : Strategy.result) ~nibble =
  (Placement.evaluate w res.Strategy.placement, Placement.evaluate w nibble)

let check_lemma_4_5 w res =
  let final, nib =
    final_and_nibble_loads w res ~nibble:(Strategy.nibble_placement w res)
  in
  lemma_4_5 res ~final ~nib

let check_lemma_4_6 w res =
  let final, nib =
    final_and_nibble_loads w res ~nibble:(Strategy.nibble_placement w res)
  in
  lemma_4_6 w res ~final ~nib

let check_theorem_4_3 w res ~optimum =
  let c = Placement.congestion w res.Strategy.placement in
  if c <= (7. *. optimum) +. 1e-9 then Ok ()
  else
    Error
      (Printf.sprintf "congestion %.6f exceeds 7 * optimum (%.6f)" c
         (7. *. optimum))

let check_all w res =
  let nibble = Strategy.nibble_placement w res in
  let modified = Strategy.modified_placement w res in
  let* () = valid w res ~nibble ~modified in
  let* () = observation_3_2 w res ~nibble ~modified in
  let final, nib = final_and_nibble_loads w res ~nibble in
  let* () = lemma_4_5 res ~final ~nib in
  lemma_4_6 w res ~final ~nib

let max_edge_slack w res =
  let final, nib =
    final_and_nibble_loads w res ~nibble:(Strategy.nibble_placement w res)
  in
  let tau = res.Strategy.tau_max in
  let best = ref 0. in
  Array.iteri
    (fun e l ->
      let bound = (4 * nib.Placement.edge_loads.(e)) + tau in
      if bound > 0 then
        best := max !best (float_of_int l /. float_of_int bound))
    final.Placement.edge_loads;
  !best
