(* An SCI cluster as in Figures 1 and 2 of the paper.

   A workstation cluster is cabled as a ring of rings (SCI ringlets
   connected by switches). Because every SCI request-response transaction
   circles its whole unidirectional ringlet, each ringlet is, load-wise, a
   bus - so the cluster is a hierarchical bus network. This example builds
   the topology from a ring description, places the pages of a virtual
   shared memory with the extended-nibble strategy, and verifies the
   placement with a packet-level simulation.

   Run with:  dune exec examples/sci_cluster.exe *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Baselines = Hbn_baselines.Baselines
module Sim = Hbn_sim.Sim
module Table = Hbn_util.Table

let () =
  (* Three cabinets of four workstations each, joined by a backbone
     ringlet that also hosts two infrastructure nodes. Switch links into
     the cabinets run at 2x the base rate; ringlet bandwidths reflect SCI
     link speed shared per ring. *)
  let cabinet =
    {
      Builders.ring_bandwidth = 4;
      members = List.init 4 (fun _ -> Builders.Ring_processor);
    }
  in
  let cluster =
    {
      Builders.ring_bandwidth = 8;
      members =
        [
          Builders.Ring_processor;
          Builders.Ring_processor;
          Builders.Sub_ring (2, cabinet);
          Builders.Sub_ring (2, cabinet);
          Builders.Sub_ring (2, cabinet);
        ];
    }
  in
  let network = Builders.of_ring cluster in
  Printf.printf
    "SCI cluster: %d workstations on %d ringlets (height %d) modeled as a \
     bus network\n"
    (Tree.num_leaves network)
    (List.length (Tree.buses network))
    (Tree.height network);

  (* Virtual-shared-memory pages: most pages have an affine home cabinet
     (local producer, cluster-wide readers), a few are global hot pages. *)
  let prng = Prng.create 2000 in
  let pages = 24 in
  let w =
    Generators.local_with_background ~prng network ~objects:pages
      ~local_rate:30 ~background_rate:3
  in

  let strategies =
    [
      ("extended-nibble", (Strategy.run w).Strategy.placement);
      ("owner (home node)", Baselines.owner w);
      ("full replication", Baselines.full_replication w);
      ("local search", Baselines.local_search ~iterations:100 ~prng w);
    ]
  in
  let t =
    Table.create
      [ "strategy"; "congestion"; "total load"; "sim makespan"; "copies" ]
  in
  List.iter
    (fun (name, p) ->
      let copies =
        Array.fold_left (fun a op -> a + Array.length op.Placement.copies) 0 p
      in
      Table.add_row t
        [
          name;
          Table.fmt_float (Placement.congestion w p);
          string_of_int (Placement.total_load w p);
          string_of_int (Sim.run ~scale:2 w p).Sim.makespan;
          string_of_int copies;
        ])
    strategies;
  Table.print t;
  print_endline
    "\nGraphviz rendering of the converted network (paste into `dot`):";
  print_string (Tree.to_dot network)
