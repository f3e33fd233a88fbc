(* The experiment harness: one function per experiment of EXPERIMENTS.md.
   Each regenerates the paper-derived result as an ASCII table. All
   randomness is seeded, so tables reproduce exactly. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Partition = Hbn_workload.Partition
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Certificates = Hbn_core.Certificates
module Mapping = Hbn_core.Mapping
module Copy = Hbn_core.Copy
module Brute_force = Hbn_exact.Brute_force
module Gadget_opt = Hbn_exact.Gadget_opt
module Lower_bounds = Hbn_exact.Lower_bounds
module Baselines = Hbn_baselines.Baselines
module Sim = Hbn_sim.Sim
module Sim_ref = Hbn_ref.Sim_ref
module Dist = Hbn_dist.Dist
module Table = Hbn_util.Table
module Stats = Hbn_ref.Stats
module Capacitated = Hbn_core.Capacitated

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let footnote fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* Shared instance families, scaled by the --quick flag. *)

let topo_families prng =
  [
    ("star-16", Builders.star ~leaves:16 ~profile:(Builders.Uniform 4));
    ("binary-h4", Builders.balanced ~arity:2 ~height:4 ~profile:(Builders.Uniform 2));
    ("ternary-h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Scaled_by_subtree 1));
    ("caterpillar-8x2", Builders.caterpillar ~spine:8 ~leaves_per_bus:2 ~profile:(Builders.Uniform 2));
    ( "random-24",
      Builders.random ~prng ~buses:8 ~leaves:16 ~profile:(Builders.Uniform 3) );
    ( "ring-of-rings",
      Builders.of_ring
        (Builders.sample_ring_of_rings ~prng ~depth:3 ~fanout:3 ~procs_per_ring:3) );
  ]

let workload_families prng tree ~objects =
  [
    ("uniform", Generators.uniform ~prng tree ~objects ~max_rate:8);
    ( "zipf",
      Generators.zipf_popularity ~prng tree ~objects ~requests_per_leaf:24
        ~exponent:1.1 ~write_fraction:0.3 );
    ( "hotspot",
      Generators.hotspot ~prng tree ~objects ~writers_per_object:2 ~write_rate:9
        ~read_rate:6 );
    ( "prod-cons",
      Generators.producer_consumer ~prng tree ~objects ~consumers:4 ~rate:6 );
    ( "local",
      Generators.local_with_background ~prng tree ~objects ~local_rate:40
        ~background_rate:2 );
  ]

(* ------------------------------------------------------------------ *)
(* E1: Figures 1 and 2 — ring-of-rings modeled as a bus network.       *)

let e1 ~quick () =
  header "E1" "Figures 1-2: SCI ring-of-rings -> hierarchical bus network";
  let t =
    Table.create
      [ "topology"; "rings"; "procs"; "height"; "degree"; "C_ext"; "C_nib"; "ratio" ]
  in
  let prng = Prng.create 101 in
  let figure1 =
    (* The paper's Figure 1: a top ring joining two rings of processors. *)
    let leaf_ring n =
      { Builders.ring_bandwidth = 4;
        members = List.init n (fun _ -> Builders.Ring_processor) }
    in
    { Builders.ring_bandwidth = 8;
      members =
        [ Builders.Ring_processor;
          Builders.Sub_ring (2, leaf_ring 4);
          Builders.Sub_ring (2, leaf_ring 3) ] }
  in
  let cases =
    ("figure-1", figure1)
    :: List.init (if quick then 2 else 5) (fun i ->
           ( Printf.sprintf "sampled-%d" i,
             Builders.sample_ring_of_rings ~prng ~depth:3 ~fanout:3
               ~procs_per_ring:3 ))
  in
  List.iter
    (fun (name, ring) ->
      let net = Builders.of_ring ring in
      (match Tree.validate_paper_assumptions net with
      | Ok () -> ()
      | Error m -> failwith m);
      let w =
        Generators.zipf_popularity ~prng net ~objects:8 ~requests_per_leaf:16
          ~exponent:1.0 ~write_fraction:0.25
      in
      let res = Strategy.run w in
      let c = Placement.congestion w res.Strategy.placement in
      let nib = Placement.congestion w (Strategy.nibble_placement w res) in
      Table.add_row t
        [
          name;
          string_of_int (List.length (Tree.buses net));
          string_of_int (Tree.num_leaves net);
          string_of_int (Tree.height net);
          string_of_int (Tree.max_degree net);
          Table.fmt_float c;
          Table.fmt_float nib;
          Table.fmt_ratio c nib;
        ])
    cases;
  Table.print t;
  footnote
    "Rings become buses (a request-response transaction circles the whole \
     ringlet), switches become tree edges; every converted network passes \
     the paper's modeling assumptions and the strategy runs unchanged."

(* ------------------------------------------------------------------ *)
(* E2: Theorem 2.1 — the PARTITION gadget threshold.                   *)

let e2 ~quick () =
  header "E2" "Theorem 2.1: congestion 4k achievable iff PARTITION solvable";
  let t =
    Table.create
      [ "instance"; "items"; "2k"; "solvable"; "opt(DP)"; "opt(B&B)"; "witness";
        "C_ext"; "opt=4k?" ]
  in
  let prng = Prng.create 202 in
  let named =
    [
      ("paper-style", Partition.make [ 3; 1; 1; 2; 3; 2 ]);
      ("tiny-yes", Partition.make [ 1; 1 ]);
      ("no-1", Partition.make [ 1; 1; 4 ]);
      ("no-2", Partition.make [ 2; 2; 2; 10 ]);
    ]
  in
  let sampled =
    List.init (if quick then 2 else 6) (fun i ->
        let inst =
          if i mod 2 = 0 then Partition.random_yes ~prng ~items:6 ~max_item:5
          else Partition.random ~prng ~items:5 ~max_item:5
        in
        (Printf.sprintf "sampled-%d" i, inst))
  in
  List.iter
    (fun (name, inst) ->
      let g = Partition.gadget inst in
      let w = g.Partition.workload in
      let dp = Gadget_opt.family_optimum inst in
      let bnb =
        match Brute_force.optimum ~budget:3_000_000 w ~candidates:`Leaves with
        | o -> Table.fmt_float ~digits:0 o.Brute_force.congestion
        | exception Brute_force.Too_large _ -> "(skip)"
      in
      let witness =
        match Partition.find_subset inst with
        | None -> "-"
        | Some s ->
          let p = Placement.single w (Partition.yes_placement g s) in
          Table.fmt_float ~digits:0 (Placement.congestion w p)
      in
      let res = Strategy.run w in
      let c = Placement.congestion w res.Strategy.placement in
      Table.add_row t
        [
          name;
          String.concat "+" (Array.to_list (Array.map string_of_int inst.Partition.items));
          string_of_int (Partition.sum inst);
          string_of_bool (Partition.solvable inst);
          string_of_int dp;
          bnb;
          witness;
          Table.fmt_float ~digits:1 c;
          string_of_bool (dp = 4 * g.Partition.k);
        ])
    (named @ sampled);
  Table.print t;
  footnote
    "opt(DP) is the closed-form optimum over the proof's canonical family; \
     the branch-and-bound optimum over ALL placements agrees with it, and \
     it equals 4k exactly on solvable instances - the reduction's threshold."

(* ------------------------------------------------------------------ *)
(* E3: Theorem 3.1 — nibble per-edge optimality in the tree model.     *)

let e3 ~quick () =
  header "E3" "Theorem 3.1: nibble placement minimizes every edge simultaneously";
  let t =
    Table.create
      [ "family"; "instances"; "edges checked"; "mismatches";
        "max opt(bus)/opt(tree)" ]
  in
  let n_inst = if quick then 10 else 40 in
  let families = [ ("sparse", 0); ("write-heavy", 1); ("read-heavy", 2) ] in
  List.iter
    (fun (fam, salt) ->
      let edges = ref 0 and mismatches = ref 0 and worst = ref 1. in
      for i = 0 to n_inst - 1 do
        let prng = Prng.create ((1000 * salt) + i) in
        let tree =
          Builders.random ~prng ~buses:2 ~leaves:(Prng.int_in prng 3 5)
            ~profile:(Builders.Uniform (Prng.int_in prng 1 3))
        in
        let w = Workload.empty tree ~objects:2 in
        List.iter
          (fun leaf ->
            if Prng.int prng 3 > 0 then begin
              let r, wr =
                match salt with
                | 1 -> (Prng.int prng 2, Prng.int_in prng 1 6)
                | 2 -> (Prng.int_in prng 1 6, Prng.int prng 2)
                | _ -> (Prng.int prng 4, Prng.int prng 4)
              in
              Workload.set_read w ~obj:(Prng.int prng 2) leaf r;
              Workload.set_write w ~obj:(Prng.int prng 2) leaf wr
            end)
          (Tree.leaves tree);
        match Brute_force.min_edge_loads w ~candidates:`All_nodes with
        | exception Brute_force.Too_large _ -> ()
        | mins ->
          let nib = Nibble.edge_loads w in
          Array.iteri
            (fun e l ->
              incr edges;
              if l <> mins.(e) then incr mismatches)
            nib;
          (match
             ( Brute_force.optimum w ~candidates:`Leaves,
               Brute_force.optimum w ~candidates:`All_nodes )
           with
          | bus, tree_opt when tree_opt.Brute_force.congestion > 0. ->
            worst :=
              Float.max !worst
                (bus.Brute_force.congestion /. tree_opt.Brute_force.congestion)
          | _ -> ()
          | exception Brute_force.Too_large _ -> ())
      done;
      Table.add_row t
        [
          fam;
          string_of_int n_inst;
          string_of_int !edges;
          string_of_int !mismatches;
          Table.fmt_float !worst;
        ])
    families;
  Table.print t;
  footnote
    "Mismatches must be 0: the nibble load equals the exhaustive per-edge \
     minimum on every edge. The last column is the measured price of \
     forbidding copies on buses (the gap the extended-nibble strategy \
     must close within factor 7)."

(* ------------------------------------------------------------------ *)
(* E4: Observation 3.2 — the deletion algorithm's guarantees.          *)

let e4 ~quick () =
  header "E4" "Observation 3.2: deletion keeps s(c) in [kappa, 2 kappa], load <= 2x";
  let t =
    Table.create
      [ "workload"; "copies"; "deleted"; "clones"; "min s/k"; "max s/2k";
        "max edge ratio" ]
  in
  let prng = Prng.create 404 in
  let tree = Builders.balanced ~arity:3 ~height:(if quick then 2 else 3)
      ~profile:(Builders.Uniform 2)
  in
  List.iter
    (fun (name, w) ->
      let res = Strategy.run w in
      let min_ratio = ref infinity and max_ratio = ref 0. in
      List.iter
        (fun c ->
          if c.Copy.kappa > 0 then begin
            let s = float_of_int c.Copy.served and k = float_of_int c.Copy.kappa in
            min_ratio := Float.min !min_ratio (s /. k);
            max_ratio := Float.max !max_ratio (s /. (2. *. k))
          end)
        res.Strategy.copies;
      let edge_ratio = ref 0. in
      let nibble = Strategy.nibble_placement w res in
      let modified = Strategy.modified_placement w res in
      for obj = 0 to Workload.num_objects w - 1 do
        let nib = Placement.edge_loads w [| nibble.(obj) |] in
        let del = Placement.edge_loads w [| modified.(obj) |] in
        Array.iteri
          (fun e l ->
            if nib.(e) > 0 then
              edge_ratio :=
                Float.max !edge_ratio (float_of_int l /. float_of_int nib.(e)))
          del
      done;
      Table.add_row t
        [
          name;
          string_of_int (List.length res.Strategy.copies);
          string_of_int res.Strategy.deletions;
          string_of_int res.Strategy.splits;
          (if !min_ratio = infinity then "-" else Table.fmt_float !min_ratio);
          Table.fmt_float !max_ratio;
          Table.fmt_float !edge_ratio;
        ])
    (workload_families prng tree ~objects:12);
  Table.print t;
  footnote
    "min s/k >= 1 and max s/2k <= 1 certify the observation's first bullet; \
     the per-object per-edge modified/nibble ratio never exceeds 2.";
  footnote ""

(* ------------------------------------------------------------------ *)
(* E5: Invariant 4.2 / Observation 3.3 / Lemma 4.1.                    *)

let e5 ~quick () =
  header "E5" "Invariant 4.2 and the free-edge guarantee (Lemma 4.1)";
  let t =
    Table.create
      [ "scenario"; "instances"; "inv checks"; "violations"; "no-free-edge" ]
  in
  let n = if quick then 20 else 100 in
  (* Sound runs. *)
  let checks = ref 0 and violations = ref 0 in
  for seed = 0 to n - 1 do
    let prng = Prng.create (5000 + seed) in
    let tree =
      Builders.random ~prng ~buses:(Prng.int_in prng 2 6)
        ~leaves:(Prng.int_in prng 4 12) ~profile:(Builders.Uniform 2)
    in
    let w = Generators.uniform ~prng tree ~objects:4 ~max_rate:9 in
    let on_round st =
      incr checks;
      match Mapping.check_invariant st with
      | Ok () -> ()
      | Error _ -> incr violations
    in
    (* A bus without a free child edge would stop Strategy.run on its
       Lemma 4.1 assertion, so every completed run counts none. *)
    ignore (Strategy.run ~on_mapping_round:on_round w)
  done;
  Table.add_row t
    [ "sound runs"; string_of_int n; string_of_int !checks;
      string_of_int !violations; "0" ];
  (* Failure injection: corrupting the acceptable loads must break one of
     the guarantees (shows the checks are not vacuous). *)
  let broken = ref 0 and total = ref 0 in
  for seed = 0 to (n / 4) - 1 do
    let prng = Prng.create (6000 + seed) in
    let tree =
      Builders.balanced ~arity:2 ~height:3 ~profile:(Builders.Uniform 2)
    in
    let w = Generators.hotspot ~prng tree ~objects:4 ~writers_per_object:3
        ~write_rate:6 ~read_rate:6
    in
    (* Rebuild steps 1-2 by hand so we can inject into step 3. Step 3
       never reads copy ids, so each object keeps its local ones. *)
    let all =
      List.concat_map
        (fun obj ->
          if
            Workload.write_contention w ~obj > 0
            && Workload.total_weight w ~obj > 0
          then
            let out = Hbn_core.Deletion.run w (Nibble.place w ~obj) in
            out.Hbn_core.Deletion.copies
          else [])
        (List.init (Workload.num_objects w) (fun i -> i))
    in
    let movable =
      List.filter (fun c -> not (Tree.is_leaf tree c.Copy.node)) all
    in
    if movable <> [] then begin
      incr total;
      (* Basic loads lowered by 500_000 start every acceptable load at
         2 L_b - 1_000_000; a run breaks when a round violates the
         invariant or a bus finds no free child edge. *)
      let lowered b = Array.map (fun l -> l - 500_000) b in
      let basic_up, basic_down = Mapping.basic_loads tree all in
      let on_round st =
        match Mapping.check_invariant st with
        | Ok () -> ()
        | Error msg -> failwith msg
      in
      match
        Mapping.run ~on_round tree ~basic_up:(lowered basic_up)
          ~basic_down:(lowered basic_down) ~movable
      with
      | Ok _ -> ()
      | Error _ | (exception Failure _) -> incr broken
    end
  done;
  Table.add_row t
    [ "injected corruption"; string_of_int !total; "-"; "-";
      Printf.sprintf "%d/%d" !broken !total ];
  Table.print t;
  footnote
    "Sound runs: zero invariant violations and a free child edge always \
     exists. Corrupted acceptable loads make every run fail, so the \
     guarantee is non-vacuous.";
  footnote
    "(Erratum: the invariant holds in the corrected form with S(s+kappa); \
     the paper's printed 2*S(s) variant is violated on real runs - see \
     DESIGN.md.)"

(* ------------------------------------------------------------------ *)
(* E6: Lemmas 4.5 / 4.6 — per-edge and per-bus load certificates.      *)

let e6 ~quick () =
  header "E6" "Lemmas 4.5/4.6: L(e) <= 4 L_nib(e) + tau_max, same per bus";
  let t =
    Table.create
      [ "topology"; "workload"; "tau"; "max edge slack"; "edge ok"; "bus ok" ]
  in
  let prng = Prng.create 606 in
  List.iter
    (fun (tname, tree) ->
      List.iter
        (fun (wname, w) ->
          let res = Strategy.run w in
          let edge_ok = Certificates.check_lemma_4_5 w res = Ok () in
          let bus_ok = Certificates.check_lemma_4_6 w res = Ok () in
          Table.add_row t
            [
              tname;
              wname;
              string_of_int res.Strategy.tau_max;
              Table.fmt_float (Certificates.max_edge_slack w res);
              string_of_bool edge_ok;
              string_of_bool bus_ok;
            ])
        (workload_families prng tree ~objects:(if quick then 6 else 16)))
    (topo_families prng);
  Table.print t;
  footnote
    "max edge slack is the tightest L(e)/(4 L_nib(e)+tau) over edges; the \
     lemmas hold whenever it stays <= 1 (and both columns must read true)."

(* ------------------------------------------------------------------ *)
(* E7: Theorem 4.3 — the 7-approximation, measured.                    *)

let e7 ~quick () =
  header "E7" "Theorem 4.3: measured approximation ratios (bound: 7)";
  let t =
    Table.create
      [ "family"; "n"; "mean C/opt"; "p90"; "max"; "max C/LB (large)" ]
  in
  let n_small = if quick then 20 else 80 in
  let families =
    [ ("uniform", 0); ("write-heavy", 1); ("read-heavy", 2); ("hotspot", 3) ]
  in
  List.iter
    (fun (fam, salt) ->
      let ratios = ref [] in
      for i = 0 to n_small - 1 do
        let prng = Prng.create ((salt * 7919) + i) in
        let tree =
          Builders.random ~prng ~buses:(Prng.int_in prng 1 3)
            ~leaves:(Prng.int_in prng 3 5)
            ~profile:(Builders.Uniform (Prng.int_in prng 1 2))
        in
        let w = Workload.empty tree ~objects:(Prng.int_in prng 1 2) in
        List.iter
          (fun leaf ->
            for obj = 0 to Workload.num_objects w - 1 do
              if Prng.int prng 3 > 0 then begin
                let r, wr =
                  match salt with
                  | 1 -> (Prng.int prng 2, Prng.int_in prng 1 5)
                  | 2 -> (Prng.int_in prng 1 5, Prng.int prng 2)
                  | 3 -> if Prng.int prng 4 = 0 then (0, 6) else (3, 0)
                  | _ -> (Prng.int prng 4, Prng.int prng 4)
                in
                Workload.set_read w ~obj leaf r;
                Workload.set_write w ~obj leaf wr
              end
            done)
          (Tree.leaves tree);
        let res = Strategy.run w in
        let c = Placement.congestion w res.Strategy.placement in
        match Brute_force.optimum w ~candidates:`Leaves ~upper_bound:c with
        | opt when opt.Brute_force.congestion > 0. ->
          ratios := (c /. opt.Brute_force.congestion) :: !ratios
        | _ -> ()
        | exception Brute_force.Too_large _ -> ()
      done;
      (* Large instances: ratio against the certified lower bound. *)
      let lb_worst = ref 0. in
      for i = 0 to (if quick then 5 else 20) - 1 do
        let prng = Prng.create ((salt * 104729) + i) in
        let tree =
          Builders.random ~prng ~buses:10 ~leaves:24 ~profile:(Builders.Uniform 2)
        in
        let w =
          match salt with
          | 1 -> Generators.hotspot ~prng tree ~objects:10 ~writers_per_object:4
                   ~write_rate:6 ~read_rate:1
          | 2 -> Generators.zipf_popularity ~prng tree ~objects:10
                   ~requests_per_leaf:20 ~exponent:1.2 ~write_fraction:0.05
          | 3 -> Generators.producer_consumer ~prng tree ~objects:10 ~consumers:6
                   ~rate:5
          | _ -> Generators.uniform ~prng tree ~objects:10 ~max_rate:6
        in
        let res = Strategy.run w in
        let c = Placement.congestion w res.Strategy.placement in
        let lb = Lower_bounds.combined w in
        if lb > 0. then lb_worst := Float.max !lb_worst (c /. lb)
      done;
      let rs = !ratios in
      Table.add_row t
        [
          fam;
          string_of_int (List.length rs);
          Table.fmt_float (Stats.mean rs);
          Table.fmt_float (Stats.percentile 90. rs);
          Table.fmt_float (List.fold_left Float.max 0. rs);
          Table.fmt_float !lb_worst;
        ])
    families;
  Table.print t;
  footnote
    "Every measured ratio stays below the proven factor 7; the paper's \
     bound is loose in practice (typical max ~2-4). On large instances \
     the ratio is against the certified lower bound, so it overstates \
     the true gap."

(* ------------------------------------------------------------------ *)
(* E8: Theorem 4.3 — sequential runtime scaling.                       *)

let time_of f =
  (* Median-of-5 wall time, seconds. *)
  let samples =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  Stats.median samples

let e8 ~quick () =
  header "E8" "Runtime scaling vs O(|X| |V| height(T) log(degree(T)))";
  let t =
    Table.create
      [ "sweep"; "|X|"; "|V|"; "h"; "deg"; "time (ms)"; "time/bound (ns)" ]
  in
  let prng = Prng.create 808 in
  let measure name w =
    let tree = Workload.tree w in
    let x = Workload.num_objects w in
    let v = Tree.n tree in
    let h = max 1 (Tree.height tree) in
    let d = Tree.max_degree tree in
    let logd = max 1. (log (float_of_int d) /. log 2.) in
    let secs = time_of (fun () -> ignore (Strategy.run w)) in
    let bound = float_of_int (x * v * h) *. logd in
    Table.add_row t
      [
        name;
        string_of_int x;
        string_of_int v;
        string_of_int h;
        string_of_int d;
        Table.fmt_float (secs *. 1000.);
        Table.fmt_float (secs /. bound *. 1e9);
      ]
  in
  let scale = if quick then 1 else 2 in
  (* Sweep |X| on a fixed topology. *)
  let tree = Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2) in
  List.iter
    (fun x ->
      measure "objects" (Generators.uniform ~prng tree ~objects:x ~max_rate:6))
    [ 8 * scale; 16 * scale; 32 * scale; 64 * scale ];
  Table.add_sep t;
  (* Sweep |V| with balanced trees. *)
  List.iter
    (fun h ->
      let tree = Builders.balanced ~arity:2 ~height:h ~profile:(Builders.Uniform 2) in
      measure "nodes" (Generators.uniform ~prng tree ~objects:16 ~max_rate:6))
    [ 3; 4; 5; 6 ];
  Table.add_sep t;
  (* Sweep height with caterpillars of ~constant size. *)
  List.iter
    (fun spine ->
      let tree =
        Builders.caterpillar ~spine ~leaves_per_bus:(max 1 (32 / spine))
          ~profile:(Builders.Uniform 2)
      in
      measure "height" (Generators.uniform ~prng tree ~objects:16 ~max_rate:6))
    [ 4; 8; 16; 32 ];
  Table.add_sep t;
  (* Sweep degree with stars. *)
  List.iter
    (fun leaves ->
      let tree = Builders.star ~leaves ~profile:(Builders.Uniform 4) in
      measure "degree" (Generators.uniform ~prng tree ~objects:16 ~max_rate:6))
    [ 16; 32; 64; 128 ];
  Table.print t;
  footnote
    "The last column divides measured time by |X| |V| h log2(deg); a \
     roughly flat (or shrinking) column across each sweep means the \
     implementation stays within the claimed asymptotic envelope."

(* ------------------------------------------------------------------ *)
(* E9: distributed execution cost.                                     *)

let e9 ~quick () =
  header "E9" "Distributed emulation vs O(|X| |V| log(deg) + height)";
  let t =
    Table.create
      [ "topology"; "|X|"; "rounds"; "msg rounds"; "(|X|+h)"; "messages";
        "max work"; "work bound" ]
  in
  let prng = Prng.create 909 in
  let cases =
    List.concat_map
      (fun (name, tree) ->
        List.map (fun x -> (name, tree, x)) (if quick then [ 8 ] else [ 8; 32 ]))
      (topo_families prng)
  in
  List.iter
    (fun (name, tree, objects) ->
      let w = Generators.uniform ~prng tree ~objects ~max_rate:6 in
      let placement, stats = Dist.strategy_rounds w in
      (* Sanity: same answer as the sequential strategy. *)
      let seq = Strategy.run w in
      assert (
        Placement.edge_loads w placement
        = Placement.edge_loads w seq.Strategy.placement);
      let h = Tree.height tree in
      let d = Tree.max_degree tree in
      let logd = max 1 (int_of_float (ceil (log (float_of_int d) /. log 2.))) in
      (* Message-granular check: the nibble protocol really run on the
         synchronous network, every node deciding locally. *)
      let dist_sets, msg_stats = Hbn_dist.Dist_nibble.run w in
      let seq_sets = Hbn_nibble.Nibble.place_all w in
      Array.iteri
        (fun obj nodes ->
          assert (nodes = seq_sets.(obj).Hbn_nibble.Nibble.nodes))
        dist_sets;
      Table.add_row t
        [
          name;
          string_of_int objects;
          string_of_int stats.Dist.rounds;
          string_of_int msg_stats.Hbn_dist.Runtime.rounds;
          string_of_int (objects + h);
          string_of_int stats.Dist.messages;
          string_of_int stats.Dist.max_node_work;
          string_of_int (objects * Tree.n tree * logd);
        ])
    cases;
  Table.print t;
  footnote
    "Rounds track |X| + height (pipelined sweeps), and the busiest node's \
     work stays below |X| |V| log2(degree) - the paper's distributed bound. \
     'msg rounds' comes from actually executing the nibble protocol on a \
     synchronous message-passing network (lib/dist Runtime + Dist_nibble); \
     its per-node decisions are asserted equal to the sequential \
     placement, as is the schedule-model placement."

(* ------------------------------------------------------------------ *)
(* E10: congestion predicts simulated completion time.                 *)

let e10 ~quick () =
  header "E10" "Congestion as performance predictor (substitute for [8])";
  let t =
    Table.create
      [ "workload"; "strategy"; "congestion"; "makespan"; "mk/cong" ]
  in
  let prng = Prng.create 1010 in
  let tree = Builders.balanced ~arity:3 ~height:(if quick then 2 else 3)
      ~profile:(Builders.Uniform 2)
  in
  let pairs = ref [] in
  let winners_agree = ref 0 and cases = ref 0 in
  List.iter
    (fun (wname, w) ->
      let strategies =
        [
          ("ext-nibble", (Strategy.run w).Strategy.placement);
          ("owner", Baselines.owner w);
          ("full-repl", Baselines.full_replication w);
          ("random", Baselines.random_leaf ~prng w);
          ("local-search", Baselines.local_search ~iterations:80 ~prng w);
        ]
      in
      let rows =
        List.map
          (fun (sname, p) ->
            let c = Placement.congestion w p in
            let mk = (Sim.run ~scale:2 w p).Sim.makespan in
            pairs := (c, float_of_int mk) :: !pairs;
            (sname, c, mk))
          strategies
      in
      List.iter
        (fun (sname, c, mk) ->
          Table.add_row t
            [
              wname;
              sname;
              Table.fmt_float c;
              string_of_int mk;
              Table.fmt_ratio (float_of_int mk) c;
            ])
        rows;
      Table.add_sep t;
      (* Does the lowest-congestion strategy also finish first? *)
      let by_c = List.sort (fun (_, a, _) (_, b, _) -> compare a b) rows in
      let by_mk = List.sort (fun (_, _, a) (_, _, b) -> compare a b) rows in
      incr cases;
      (match (by_c, by_mk) with
      | (s1, _, _) :: _, (s2, _, _) :: _ when s1 = s2 -> incr winners_agree
      | _ -> ()))
    (workload_families prng tree ~objects:(if quick then 6 else 12));
  Table.print t;
  footnote "Pearson (congestion, makespan)  = %s"
    (Table.fmt_float (Stats.pearson !pairs));
  footnote "Spearman (congestion, makespan) = %s"
    (Table.fmt_float (Stats.spearman !pairs));
  footnote "lowest congestion also finishes first in %d/%d workloads"
    !winners_agree !cases;
  footnote
    "This reproduces the qualitative claim of the paper's introduction \
     (citing its [8]): completion time on the bus network tracks the \
     congestion of the data management strategy."

(* ------------------------------------------------------------------ *)
(* E11: strategy comparison + ablation.                                *)

let e11 ~quick () =
  header "E11" "Strategy comparison across topology x workload (C / LB)";
  let t =
    Table.create
      [ "topology"; "workload"; "LB"; "ext"; "ext+pol"; "ext-lit"; "owner";
        "gravity"; "random"; "full"; "lsearch" ]
  in
  let prng = Prng.create 1111 in
  let sums = Hashtbl.create 8 in
  let add name v =
    let s, n = try Hashtbl.find sums name with Not_found -> (0., 0) in
    Hashtbl.replace sums name (s +. v, n + 1)
  in
  List.iter
    (fun (tname, tree) ->
      List.iter
        (fun (wname, w) ->
          let lb = Lower_bounds.combined w in
          let ext = (Strategy.run w).Strategy.placement in
          let entries =
            [
              ("ext", ext);
              ("ext+pol", Baselines.polish ~iterations:60 ~prng w ext);
              ("ext-lit", (Strategy.run ~move_leaf_copies:true w).Strategy.placement);
              ("owner", Baselines.owner w);
              ("gravity", Baselines.gravity_leaf w);
              ("random", Baselines.random_leaf ~prng w);
              ("full", Baselines.full_replication w);
              ("lsearch", Baselines.local_search ~iterations:60 ~prng w);
            ]
          in
          let cells =
            List.map
              (fun (name, p) ->
                let c = Placement.congestion w p in
                let r = if lb > 0. then c /. lb else Float.nan in
                if not (Float.is_nan r) then add name r;
                Table.fmt_float r)
              entries
          in
          Table.add_row t ((tname :: wname :: Table.fmt_float lb :: cells)))
        (workload_families prng tree ~objects:(if quick then 6 else 12)))
    (topo_families prng);
  Table.print t;
  let avg name =
    match Hashtbl.find_opt sums name with
    | Some (s, n) when n > 0 -> s /. float_of_int n
    | _ -> Float.nan
  in
  footnote
    "mean C/LB: ext=%s ext+pol=%s ext-lit=%s owner=%s gravity=%s random=%s full=%s lsearch=%s"
    (Table.fmt_float (avg "ext")) (Table.fmt_float (avg "ext+pol"))
    (Table.fmt_float (avg "ext-lit"))
    (Table.fmt_float (avg "owner")) (Table.fmt_float (avg "gravity"))
    (Table.fmt_float (avg "random")) (Table.fmt_float (avg "full"))
    (Table.fmt_float (avg "lsearch"));
  footnote
    "ext-lit is the Figure-5-verbatim ablation (leaf copies join the \
     upwards phase); both variants respect the factor-7 guarantee, the \
     default is usually at least as good. ext+pol runs improvement-only \
     local search from the extended-nibble placement: it keeps the \
     guarantee and beats the unguaranteed heuristics in practice."

(* ------------------------------------------------------------------ *)
(* E12: the dynamic companion strategy (Section 1.3 / reference [10]). *)

let e12 ~quick () =
  header "E12"
    "Dynamic strategy: per-edge competitive ratio vs exact offline optimum";
  let t =
    Table.create
      [ "pattern"; "sequences"; "mean ratio"; "max ratio"; "max dyn-3opt";
        "repl"; "migr" ]
  in
  let n = if quick then 20 else 80 in
  let patterns =
    [ ("shuffled", `Shuffled); ("bursty", `Bursty); ("phases", `Phases) ]
  in
  List.iter
    (fun (name, pattern) ->
      let ratios = ref [] and excess = ref 0 in
      let repl = ref 0 and migr = ref 0 and sequences = ref 0 in
      for seed = 0 to n - 1 do
        let prng = Prng.create (120000 + seed) in
        let tree =
          Builders.random ~prng ~buses:(Prng.int_in prng 2 6)
            ~leaves:(Prng.int_in prng 4 10) ~profile:(Builders.Uniform 2)
        in
        let w = Generators.uniform ~prng tree ~objects:3 ~max_rate:8 in
        for obj = 0 to Workload.num_objects w - 1 do
          let reqs =
            match pattern with
            | `Shuffled -> Hbn_dynamic.Request.of_workload ~prng w ~obj
            | `Bursty -> Hbn_dynamic.Request.bursty ~prng w ~obj ~burst:6
            | `Phases ->
              let leaves = Array.of_list (Tree.leaves tree) in
              Prng.shuffle prng leaves;
              Hbn_dynamic.Request.phases ~prng tree
                ~readers:(Array.to_list (Array.sub leaves 0 (min 3 (Array.length leaves))))
                ~writer:leaves.(Array.length leaves - 1)
                ~phase_length:12 ~phases:6
          in
          match reqs with
          | [] -> ()
          | first :: _ ->
            incr sequences;
            let dyn =
              Hbn_dynamic.Online.run tree
                ~initial:first.Hbn_dynamic.Request.node reqs
            in
            let opt =
              Hbn_dynamic.Offline.per_edge_optimum tree
                ~initial:first.Hbn_dynamic.Request.node reqs
            in
            repl := !repl + dyn.Hbn_dynamic.Online.replications;
            migr := !migr + dyn.Hbn_dynamic.Online.migrations;
            Array.iteri
              (fun e l ->
                excess := max !excess (l - (3 * opt.(e)));
                if opt.(e) > 0 then
                  ratios := (float_of_int l /. float_of_int opt.(e)) :: !ratios)
              dyn.Hbn_dynamic.Online.edge_loads
        done
      done;
      Table.add_row t
        [
          name;
          string_of_int !sequences;
          Table.fmt_float (Stats.mean !ratios);
          Table.fmt_float (List.fold_left Float.max 0. !ratios);
          string_of_int !excess;
          string_of_int !repl;
          string_of_int !migr;
        ])
    patterns;
  Table.print t;
  footnote
    "The offline comparator is the exact per-edge 3-state DP - a bound no \
     strategy can beat. Loads never exceed 3*OPT by more than a constant, \
     matching the competitive ratio 3 proven for trees in the paper's \
     reference [10]. The read/write alternation adversary attains 3.";
  (* Dynamic vs static in hindsight on phase-structured traffic. *)
  let t2 = Table.create [ "phase length"; "dynamic load"; "static (nibble) load"; "dyn/static" ] in
  List.iter
    (fun len ->
      let prng = Prng.create 121212 in
      let tree = Builders.balanced ~arity:2 ~height:3 ~profile:(Builders.Uniform 2) in
      let leaves = Array.of_list (Tree.leaves tree) in
      let seq =
        Hbn_dynamic.Request.phases ~prng tree
          ~readers:[ leaves.(1); leaves.(2); leaves.(3) ]
          ~writer:leaves.(0) ~phase_length:len ~phases:8
      in
      let dyn = Hbn_dynamic.Online.run tree ~initial:leaves.(0) seq in
      let dyn_total = Array.fold_left ( + ) 0 dyn.Hbn_dynamic.Online.edge_loads in
      let w1 = Workload.empty tree ~objects:1 in
      List.iter
        (fun (r : Hbn_dynamic.Request.t) ->
          let v = r.Hbn_dynamic.Request.node in
          match r.Hbn_dynamic.Request.kind with
          | Hbn_dynamic.Request.Read ->
            Workload.set_read w1 ~obj:0 v (Workload.reads w1 ~obj:0 v + 1)
          | Hbn_dynamic.Request.Write ->
            Workload.set_write w1 ~obj:0 v (Workload.writes w1 ~obj:0 v + 1))
        seq;
      let static_total = Array.fold_left ( + ) 0 (Nibble.edge_loads w1) in
      Table.add_row t2
        [
          string_of_int len;
          string_of_int dyn_total;
          string_of_int static_total;
          Table.fmt_ratio (float_of_int dyn_total) (float_of_int static_total);
        ])
    [ 2; 5; 10; 25; 50; 100 ];
  Table.print t2;
  footnote
    "Longer phases favor online adaptation: the dynamic strategy \
     re-replicates per read phase and contracts per write phase, beating \
     every static placement once phases are long enough."

(* ------------------------------------------------------------------ *)
(* E13: capacity-constrained placement (cf. the paper's reference [13]). *)

let e13 ~quick () =
  header "E13" "Memory capacities: congestion as per-processor capacity shrinks";
  let t =
    Table.create
      [ "capacity"; "relocations"; "merges"; "congestion"; "vs unlimited"; "LB" ]
  in
  let prng = Prng.create 131313 in
  let tree = Builders.balanced ~arity:3 ~height:(if quick then 2 else 3)
      ~profile:(Builders.Uniform 2)
  in
  let objects = if quick then 12 else 30 in
  let w =
    Generators.zipf_popularity ~prng tree ~objects ~requests_per_leaf:30
      ~exponent:1.1 ~write_fraction:0.15
  in
  let res = Strategy.run w in
  let unlimited = Placement.congestion w res.Strategy.placement in
  let lb = Lower_bounds.combined w in
  List.iter
    (fun cap ->
      match Capacitated.apply w ~capacity:(fun _ -> cap) res.Strategy.placement with
      | Ok out ->
        let c = Placement.congestion w out.Capacitated.placement in
        Table.add_row t
          [
            string_of_int cap;
            string_of_int out.Capacitated.relocations;
            string_of_int out.Capacitated.merges;
            Table.fmt_float c;
            Table.fmt_ratio c unlimited;
            Table.fmt_float lb;
          ]
      | Error _ ->
        Table.add_row t [ string_of_int cap; "-"; "-"; "infeasible" ])
    [ 1000; 16; 8; 4; 2; 1 ];
  Table.print t;
  footnote
    "Post-processing the extended-nibble placement: overfull processors \
     evict least-used copies, merging into existing replicas when one is \
     near. Tight capacities trade replication away and the congestion \
     climbs towards (and past) single-copy territory; the factor-7 \
     guarantee does not carry over, as the companion paper [13] needs \
     different machinery."

(* ------------------------------------------------------------------ *)
(* E14: ablation — what each pipeline step buys.                        *)

let e14 ~quick () =
  header "E14" "Ablation: removing Step 2 or Step 3's load balancing";
  let t =
    Table.create
      [ "variant"; "instances"; "failures"; "mean C/LB"; "max C/LB";
        "Lemma 4.5 holds" ]
  in
  let n = if quick then 25 else 100 in
  let full_r = ref [] and naive_r = ref [] and skip_r = ref [] in
  let skip_failures = ref 0 and naive_l45 = ref 0 and full_l45 = ref 0 in
  for seed = 0 to n - 1 do
    let prng = Prng.create (140000 + seed) in
    let tree =
      Builders.random ~prng ~buses:(Prng.int_in prng 3 8)
        ~leaves:(Prng.int_in prng 6 14) ~profile:(Builders.Uniform 2)
    in
    let w =
      Generators.hotspot ~prng tree ~objects:6
        ~writers_per_object:(Prng.int_in prng 1 3)
        ~write_rate:(Prng.int_in prng 2 8) ~read_rate:8
    in
    let lb = Lower_bounds.combined w in
    if lb > 0. then begin
      let res = Strategy.run w in
      let nib = Placement.edge_loads w (Strategy.nibble_placement w res) in
      let lemma_bound placement tau =
        (* Does the Lemma 4.5 certificate hold for this placement? *)
        let loads = Placement.edge_loads w placement in
        let ok = ref true in
        Array.iteri
          (fun e l -> if l > (4 * nib.(e)) + tau then ok := false)
          loads;
        !ok
      in
      full_r := (Placement.congestion w res.Strategy.placement /. lb) :: !full_r;
      if lemma_bound res.Strategy.placement res.Strategy.tau_max then
        incr full_l45;
      let naive = Strategy.naive_nearest_leaf w in
      naive_r := (Placement.congestion w naive /. lb) :: !naive_r;
      if lemma_bound naive res.Strategy.tau_max then incr naive_l45;
      match Strategy.skip_deletion w with
      | Strategy.Mapped p -> skip_r := (Placement.congestion w p /. lb) :: !skip_r
      | Strategy.Stuck _ -> incr skip_failures
    end
  done;
  let row name rs failures lemma =
    Table.add_row t
      [
        name;
        string_of_int n;
        failures;
        Table.fmt_float (Stats.mean rs);
        Table.fmt_float (List.fold_left Float.max 0. rs);
        lemma;
      ]
  in
  row "full strategy" !full_r "0" (Printf.sprintf "%d/%d" !full_l45 n);
  row "no load balancing (naive Step 3)" !naive_r "0"
    (Printf.sprintf "%d/%d" !naive_l45 n);
  row "no deletion (skip Step 2)" !skip_r
    (Printf.sprintf "%d/%d" !skip_failures n)
    "-";
  Table.print t;
  footnote
    "Skipping the deletion step invalidates Invariant 4.2's initialization \
     (copies may serve < kappa requests), and the mapping's free-edge \
     guarantee (Lemma 4.1) then really does fail on a fraction of \
     instances - Step 2 is what makes Step 3 sound. The naive mapping \
     always terminates but gives up the per-edge certificate and loses \
     congestion on hotspot workloads."

(* ------------------------------------------------------------------ *)
(* E15: congestion vs total communication load (the intro's argument).  *)

let e15 ~quick () =
  header "E15"
    "Why congestion, not total load: bottlenecks of total-load-optimal placements";
  let t =
    Table.create
      [ "family"; "n"; "mean C(tl-opt)/C(opt)"; "max"; "mean TL ratio" ]
  in
  let n_inst = if quick then 15 else 60 in
  let families = [ ("uniform", 0); ("hot-reader", 1); ("fan-in", 2) ] in
  List.iter
    (fun (fam, salt) ->
      let ratios = ref [] and tl_ratios = ref [] in
      for i = 0 to n_inst - 1 do
        let prng = Prng.create ((salt * 7907) + i + 150000) in
        let tree =
          Builders.star ~leaves:(Prng.int_in prng 3 5)
            ~profile:(Builders.Uniform 4)
        in
        let w = Workload.empty tree ~objects:2 in
        List.iter
          (fun leaf ->
            for obj = 0 to 1 do
              match salt with
              | 1 ->
                (* One hot processor reads everything; others write. *)
                if leaf = 1 then Workload.set_read w ~obj leaf (Prng.int_in prng 2 6)
                else Workload.set_write w ~obj leaf (Prng.int_in prng 0 3)
              | 2 ->
                (* Everyone writes to shared state. *)
                Workload.set_write w ~obj leaf (Prng.int_in prng 1 5)
              | _ ->
                Workload.set_read w ~obj leaf (Prng.int prng 4);
                Workload.set_write w ~obj leaf (Prng.int prng 4)
            done)
          (Tree.leaves tree);
        match
          ( Brute_force.min_total_load w ~candidates:`Leaves,
            Brute_force.optimum w ~candidates:`Leaves )
        with
        | tl, opt when opt.Brute_force.congestion > 0. ->
          ratios :=
            (tl.Brute_force.congestion /. opt.Brute_force.congestion)
            :: !ratios;
          let total v = Array.fold_left ( + ) 0 v in
          let tl_total = total tl.Brute_force.edge_loads in
          let cong_total = total opt.Brute_force.edge_loads in
          if tl_total > 0 then
            tl_ratios :=
              (float_of_int cong_total /. float_of_int tl_total) :: !tl_ratios
        | _ -> ()
        | exception Brute_force.Too_large _ -> ()
      done;
      Table.add_row t
        [
          fam;
          string_of_int (List.length !ratios);
          Table.fmt_float (Stats.mean !ratios);
          Table.fmt_float (List.fold_left Float.max 0. !ratios);
          Table.fmt_float (Stats.mean !tl_ratios);
        ])
    families;
  Table.print t;
  footnote
    "C(tl-opt)/C(opt): congestion suffered by the total-load-optimal \
     placement relative to the congestion optimum - the bottleneck effect \
     the paper's introduction warns about (\"simply reducing the total \
     communication load can result in bottlenecks\"). The last column \
     shows the price the congestion optimum pays in total load (modest)."

(* ------------------------------------------------------------------ *)
(* E16: scheduling-policy robustness of the simulator conclusions.      *)
(* FIFO is [Sim.run]; round-robin and newest-first run in the reference *)
(* scan [Hbn_ref.Sim_ref], their only implementation.                   *)

let e16 ~quick () =
  header "E16" "Simulator scheduling ablation: makespan robustness";
  let t =
    Table.create
      [ "workload"; "strategy"; "congestion"; "fifo"; "round-robin";
        "reversed"; "spread" ]
  in
  let prng = Prng.create 161616 in
  let tree = Builders.balanced ~arity:3 ~height:2 ~profile:(Builders.Uniform 2) in
  let pairs = Hashtbl.create 8 in
  let workloads =
    ("bsp", Generators.bsp_neighbor_exchange tree ~supersteps:6 ~neighbors:2)
    :: workload_families prng tree ~objects:(if quick then 6 else 9)
  in
  List.iter
    (fun (wname, w) ->
      List.iter
        (fun (sname, p) ->
          let c = Placement.congestion w p in
          let mk policy = (Sim_ref.run ~scale:2 ~policy w p).Sim.makespan in
          let f = (Sim.run ~scale:2 w p).Sim.makespan in
          let rr = mk Sim_ref.Round_robin and rv = mk Sim_ref.Reversed in
          let worst = max f (max rr rv) and best = min f (min rr rv) in
          List.iter
            (fun (pol, v) ->
              let prev = try Hashtbl.find pairs pol with Not_found -> [] in
              Hashtbl.replace pairs pol ((c, float_of_int v) :: prev))
            [ ("fifo", f); ("rr", rr); ("rev", rv) ];
          Table.add_row t
            [
              wname;
              sname;
              Table.fmt_float c;
              string_of_int f;
              string_of_int rr;
              string_of_int rv;
              Table.fmt_ratio (float_of_int worst) (float_of_int best);
            ])
        [
          ("ext-nibble", (Strategy.run w).Strategy.placement);
          ("owner", Baselines.owner w);
          ("full-repl", Baselines.full_replication w);
        ];
      Table.add_sep t)
    workloads;
  Table.print t;
  List.iter
    (fun pol ->
      footnote "Pearson(congestion, makespan) under %-11s = %s" pol
        (Table.fmt_float (Stats.pearson (Hashtbl.find pairs pol))))
    [ "fifo"; "rr"; "rev" ];
  footnote
    "All three work-conserving service orders give near-identical \
     makespans (spread close to 1), so E10's congestion-predicts-time \
     conclusion does not hinge on the scheduler. The 'bsp' row is the \
     deterministic stencil-exchange workload of a BSP parallel program."

(* ------------------------------------------------------------------ *)
(* E17: robustness of static placements under frequency drift.          *)

let e17 ~quick () =
  header "E17" "Frequency drift: when is recomputing the placement worth it?";
  let t =
    Table.create [ "perturbation"; "mean stale/fresh"; "max"; "mean stale/LB" ]
  in
  let n = if quick then 8 else 24 in
  let drifts =
    [ `Noise 0.1; `Noise 0.5; `Noise 2.0; `Rotate 1; `Rotate 2; `Rotate 4 ]
  in
  let results = List.map (fun d -> (d, ref [])) drifts in
  for seed = 0 to n - 1 do
    let prng = Prng.create (170000 + seed) in
    let tree =
      Builders.random ~prng ~buses:8 ~leaves:16 ~profile:(Builders.Uniform 2)
    in
    let w =
      (* Locality-heavy workload: each object has a home processor, the
         regime where placements are topology-sensitive. *)
      Generators.local_with_background ~prng tree ~objects:12 ~local_rate:40
        ~background_rate:2
    in
    let placement = (Strategy.run w).Strategy.placement in
    List.iter
      (fun (drift, acc) ->
        (* Two drift regimes: i.i.d. multiplicative noise on every rate,
           and a systematic shift that moves each processor's role to a
           leaf k positions over (hotspots wander through the machine). *)
        let leaves = Array.of_list (Tree.leaves tree) in
        let nl = Array.length leaves in
        let pos = Array.make (Tree.n tree) 0 in
        Array.iteri (fun i l -> pos.(l) <- i) leaves;
        let w' = Workload.empty tree ~objects:(Workload.num_objects w) in
        List.iter
          (fun leaf ->
            for obj = 0 to Workload.num_objects w - 1 do
              match drift with
              | `Noise amount ->
                let perturb rate =
                  if rate = 0 then 0
                  else begin
                    let f = 1. +. Prng.float prng amount in
                    let f = if Prng.bool prng then f else 1. /. f in
                    max 0 (int_of_float (Float.round (float_of_int rate *. f)))
                  end
                in
                Workload.set_read w' ~obj leaf (perturb (Workload.reads w ~obj leaf));
                Workload.set_write w' ~obj leaf (perturb (Workload.writes w ~obj leaf))
              | `Rotate k ->
                let target = leaves.((pos.(leaf) + k) mod nl) in
                Workload.set_read w' ~obj target (Workload.reads w ~obj leaf);
                Workload.set_write w' ~obj target (Workload.writes w ~obj leaf)
            done)
          (Tree.leaves tree);
        (* The stale placement may miss newly-requesting leaves entirely;
           serve them at the nearest existing copy (or skip the sample in
           the rare case an object appears from nothing). *)
        let ok = ref true in
        let copies =
          Array.init (Workload.num_objects w) (fun obj ->
              let cs = Placement.copies placement ~obj in
              if cs = [] && Workload.requesting_leaves w' ~obj <> [] then
                ok := false;
              cs)
        in
        if !ok then begin
          let stale = Placement.nearest w' ~copies in
          let stale_c = Placement.congestion w' stale in
          let fresh_c =
            Placement.congestion w' (Strategy.run w').Strategy.placement
          in
          let lb = Lower_bounds.combined w' in
          if fresh_c > 0. && lb > 0. then
            acc := (stale_c /. fresh_c, stale_c /. lb) :: !acc
        end)
      results
  done;
  List.iter
    (fun (drift, acc) ->
      let vs_fresh = List.map fst !acc and vs_lb = List.map snd !acc in
      let label =
        match drift with
        | `Noise a -> Printf.sprintf "noise %.0f%%" (a *. 100.)
        | `Rotate k -> Printf.sprintf "rotate %d" k
      in
      Table.add_row t
        [
          label;
          Table.fmt_float (Stats.mean vs_fresh);
          Table.fmt_float (List.fold_left Float.max 0. vs_fresh);
          Table.fmt_float (Stats.mean vs_lb);
        ])
    results;
  Table.print t;
  footnote
    "Stale = yesterday's placement re-evaluated on today's frequencies \
     (nearest-copy service). Under i.i.d. multiplicative noise the stale \
     placement matches a fresh recomputation - the strategy's decisions \
     depend on frequency ratios, so unbiased noise barely moves them and \
     precise estimates are unnecessary. A systematic shift that relocates \
     the hotspots (rotate k) is what actually hurts, and it is exactly \
     the regime where the dynamic companion strategy of E12 earns its \
     keep."

let all ~quick =
  [
    ("E1", e1 ~quick);
    ("E2", e2 ~quick);
    ("E3", e3 ~quick);
    ("E4", e4 ~quick);
    ("E5", e5 ~quick);
    ("E6", e6 ~quick);
    ("E7", e7 ~quick);
    ("E8", e8 ~quick);
    ("E9", e9 ~quick);
    ("E10", e10 ~quick);
    ("E11", e11 ~quick);
    ("E12", e12 ~quick);
    ("E13", e13 ~quick);
    ("E14", e14 ~quick);
    ("E15", e15 ~quick);
    ("E16", e16 ~quick);
    ("E17", e17 ~quick);
  ]
