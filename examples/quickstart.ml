(* Quickstart: the smallest end-to-end tour of the public API.

   Build a hierarchical bus network, describe who reads and writes each
   shared object, run the extended-nibble strategy, and inspect the
   resulting placement and congestion.

   Run with:  dune exec examples/quickstart.exe *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy

let () =
  (* A binary tree of buses of height 2: four processors, three buses. *)
  let network =
    Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 2)
  in
  Format.printf "%a@." Tree.pp network;

  (* Two shared objects. Processors are the leaves of the tree. *)
  let procs = Array.of_list (Tree.leaves network) in
  let w = Workload.empty network ~objects:2 in
  (* Object 0: processor 0 produces (writes), everyone reads. *)
  Workload.set_write w ~obj:0 procs.(0) 10;
  Array.iter (fun p -> Workload.set_read w ~obj:0 p 6) procs;
  (* Object 1: two processors update a shared counter. *)
  Workload.set_write w ~obj:1 procs.(1) 8;
  Workload.set_write w ~obj:1 procs.(2) 8;

  (* Run the paper's 7-approximation strategy. *)
  let result = Strategy.run w in
  let placement = result.Strategy.placement in

  Array.iteri
    (fun obj _ ->
      Format.printf "object %d: copies on processors [%s]@." obj
        (String.concat "; "
           (List.map string_of_int (Placement.copies placement ~obj))))
    placement;

  let c = Placement.evaluate w placement in
  Format.printf "congestion: %.2f (bottleneck: %s)@." c.Placement.value
    (match c.Placement.bottleneck with
    | `Edge e -> Printf.sprintf "edge %d" e
    | `Bus b -> Printf.sprintf "bus %d" b);

  (* The nibble placement (copies allowed on buses) is a lower bound: *)
  Format.printf "tree-model lower bound: %.2f@."
    (Placement.congestion w (Strategy.nibble_placement w result));
  Format.printf "guarantee: congestion <= 7 x optimal (Theorem 4.3)@."
