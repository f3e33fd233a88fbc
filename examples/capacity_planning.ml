(* Capacity planning: how much processor memory does low congestion need?

   The paper's companion work ([13] in its bibliography) extends
   congestion-driven data management to memory-limited nodes. This example
   sizes the per-workstation object store of the SCI cluster from the
   sci_cluster example: sweep the per-processor capacity and watch the
   congestion/replication trade-off, then find the knee.

   Run with:  dune exec examples/capacity_planning.exe *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Capacitated = Hbn_core.Capacitated
module Lower_bounds = Hbn_exact.Lower_bounds
module Table = Hbn_util.Table

let () =
  let cabinet =
    { Builders.ring_bandwidth = 4;
      members = List.init 4 (fun _ -> Builders.Ring_processor) }
  in
  let cluster =
    { Builders.ring_bandwidth = 8;
      members =
        [ Builders.Ring_processor; Builders.Ring_processor;
          Builders.Sub_ring (2, cabinet); Builders.Sub_ring (2, cabinet);
          Builders.Sub_ring (2, cabinet) ] }
  in
  let network = Builders.of_ring cluster in
  let prng = Prng.create 1717 in
  let pages = 40 in
  let w =
    Generators.zipf_popularity ~prng network ~objects:pages
      ~requests_per_leaf:30 ~exponent:1.1 ~write_fraction:0.1
  in
  let res = Strategy.run w in
  let unconstrained = Placement.congestion w res.Strategy.placement in
  Printf.printf
    "%d shared pages on %d workstations; unconstrained congestion %.1f (LB %.1f)\n\n"
    pages (Tree.num_leaves network) unconstrained (Lower_bounds.combined w);
  let t =
    Table.create
      [ "capacity"; "total copies"; "moved"; "merged"; "congestion"; "penalty" ]
  in
  List.iter
    (fun cap ->
      match
        Capacitated.apply w ~capacity:(fun _ -> cap) res.Strategy.placement
      with
      | Ok out ->
        let p = out.Capacitated.placement in
        let copies =
          Array.fold_left (fun a op -> a + Array.length op.Placement.copies) 0 p
        in
        let c = Placement.congestion w p in
        Table.add_row t
          [
            string_of_int cap;
            string_of_int copies;
            string_of_int out.Capacitated.relocations;
            string_of_int out.Capacitated.merges;
            Table.fmt_float ~digits:1 c;
            Table.fmt_ratio c unconstrained;
          ]
      | Error msg ->
        Table.add_row t [ string_of_int cap; "-"; "-"; "-"; "infeasible"; msg ])
    [ 64; 16; 8; 6; 4; 3; 2 ];
  Table.print t;
  print_endline
    "\nThe knee of the curve tells the cluster architect how much object\n\
     store per workstation buys near-unconstrained congestion; below it,\n\
     evictions strip replicas from read-shared pages and the remaining\n\
     copies' switches saturate."
