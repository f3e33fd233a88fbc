(* The attribution table's contract: contribution sums reproduce the
   evaluator's loads exactly, a load engine's table equals the
   placement's bit for bit after any delta sequence, and attribution is
   invariant under the domain-parallel pipeline. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Attribution = Hbn_obs.Attribution
module Strategy = Hbn_core.Strategy
module Baselines = Hbn_baselines.Baselines
module Exec = Hbn_exec.Exec
module Prng = Hbn_prng.Prng

(* Totals, congestion and bottleneck of a table must reproduce the
   from-scratch evaluator on the same placement. *)
let agrees_with_evaluator w p =
  let attr = Attribution.of_placement w p in
  let c = Placement.evaluate w p in
  let tree = Workload.tree w in
  Attribution.totals attr = c.Placement.edge_loads
  && Attribution.congestion_value attr = c.Placement.value
  && (match Attribution.hotspots attr ~k:1 with
     | [] -> Tree.num_edges tree = 0
     | (site, rel) :: _ ->
       rel = c.Placement.value
       && site = (c.Placement.bottleneck :> Attribution.site))
  && List.for_all
       (fun e ->
         let contribs = Attribution.edge_contributions attr ~edge:e in
         List.fold_left (fun s c -> s + c.Attribution.amount) 0 contribs
         = Attribution.edge_total attr ~edge:e
         && List.for_all (fun c -> c.Attribution.amount <> 0) contribs)
       (List.init (Tree.num_edges tree) Fun.id)
  && List.for_all
       (fun b ->
         Attribution.bus_total2 attr ~bus:b = c.Placement.bus_loads2.(b)
         && List.fold_left
              (fun s c -> s + c.Attribution.amount)
              0
              (Attribution.bus_contributions attr ~bus:b)
            = c.Placement.bus_loads2.(b))
       (Tree.buses tree)

let prop_sums_reproduce_evaluator seed =
  let _, w = Helpers.instance seed in
  let strategy = (Strategy.run w).Strategy.placement in
  let prng = Prng.create (seed + 13) in
  let leaves = Tree.leaves_array (Workload.tree w) in
  let copies =
    Array.init (Workload.num_objects w) (fun _ ->
        List.sort_uniq compare
          (List.init
             (Prng.int_in prng 1 3)
             (fun _ -> leaves.(Prng.int prng (Array.length leaves)))))
  in
  agrees_with_evaluator w strategy
  && agrees_with_evaluator w (Placement.nearest w ~copies)
  && agrees_with_evaluator w (Baselines.full_replication w)

(* One random nearest-rule delta on the engine (same shape as the loads
   suite's); returns false when nothing applied. *)
let random_delta ~prng w eng =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let obj = Prng.int prng (Workload.num_objects w) in
  let leaf = leaves.(Prng.int prng (Array.length leaves)) in
  if Loads.has_copy eng ~obj leaf then
    if Loads.num_copies eng ~obj > 1 then begin
      Loads.remove_copy eng ~obj leaf;
      true
    end
    else false
  else if Loads.num_copies eng ~obj = 0 || Prng.bool prng then begin
    Loads.add_copy eng ~obj leaf;
    true
  end
  else begin
    let victim = Prng.pick prng (Loads.copies eng ~obj) in
    Loads.move_copy eng ~obj ~src:victim ~dst:leaf;
    true
  end

let seed_engine ~prng w =
  let leaves = Tree.leaves_array (Workload.tree w) in
  let copies =
    Array.init (Workload.num_objects w) (fun obj ->
        match Workload.requesting_leaves w ~obj with
        | [] -> []
        | req ->
          List.sort_uniq compare
            (Prng.pick prng req
            :: List.init (Prng.int prng 3) (fun _ ->
                   leaves.(Prng.int prng (Array.length leaves)))))
  in
  Loads.of_copies w copies

(* The engine path and the placement path attribute identically after
   any delta sequence. *)
let prop_engine_matches_placement_attribution seed =
  let _, w = Helpers.instance seed in
  let prng = Prng.create (seed + 1201) in
  let eng = seed_engine ~prng w in
  for _ = 1 to 15 do
    ignore (random_delta ~prng w eng)
  done;
  let copies =
    Array.init (Workload.num_objects w) (fun obj -> Loads.copies eng ~obj)
  in
  Attribution.equal
    (Attribution.of_loads eng)
    (Attribution.of_placement w (Placement.nearest w ~copies))

let prop_attribution_invariant_across_jobs seed =
  let _, w = Helpers.instance seed in
  let at_jobs jobs =
    Exec.with_runner ~jobs (fun exec ->
        Attribution.of_placement w (Strategy.run ~exec w).Strategy.placement)
  in
  let reference = at_jobs 1 in
  List.for_all (fun jobs -> Attribution.equal reference (at_jobs jobs)) [ 2; 4 ]

let test_renderings () =
  let _, w = Helpers.instance 11 in
  let attr =
    Attribution.of_placement w (Strategy.run w).Strategy.placement
  in
  let json = Attribution.to_json ~k:3 attr in
  (match Hbn_obs.Json.parse_result json with
  | Error m -> Alcotest.failf "to_json unparseable: %s" m
  | Ok doc ->
    (match Hbn_obs.Json.member "schema" doc with
    | Some (Hbn_obs.Json.Str "hbn.explain/v1") -> ()
    | _ -> Alcotest.fail "schema field missing");
    (match
       Option.bind (Hbn_obs.Json.member "congestion" doc) Hbn_obs.Json.to_float
     with
    | Some c ->
      Alcotest.(check (float 0.)) "congestion field"
        (Attribution.congestion_value attr)
        c
    | None -> Alcotest.fail "congestion field missing"));
  let dot = Attribution.to_dot attr in
  Alcotest.(check bool) "dot header" true
    (String.length dot > 0
    && String.sub dot 0 (String.length "graph hbn_attribution")
       = "graph hbn_attribution")

(* Tie-heavy instances for the one site-rating scan: symmetric stars
   with equal bandwidths (every edge ties; with 2b leaves and bus
   bandwidth b, symmetric loads also tie each edge with the bus), a
   workload with no requests (every site at 0), and a one-processor tree
   with no sites at all. Copy sets are every leaf, one leaf, or a random
   leaf set. *)
let tie_instance seed =
  let prng = Prng.create (seed + 2718) in
  let symmetric tree ~objects =
    let w = Workload.empty tree ~objects in
    for obj = 0 to objects - 1 do
      let rd = Prng.int prng 4 and wr = Prng.int prng 3 in
      Array.iter
        (fun leaf ->
          Workload.set_read w ~obj leaf rd;
          Workload.set_write w ~obj leaf wr)
        (Tree.leaves_array tree)
    done;
    w
  in
  let w =
    match Prng.int prng 4 with
    | 0 ->
      let b = Prng.int_in prng 1 4 in
      symmetric (Hbn_tree.Builders.star ~leaves:(2 * b) ~profile:(Uniform b))
        ~objects:(Prng.int_in prng 1 3)
    | 1 ->
      symmetric
        (Hbn_tree.Builders.star ~leaves:(Prng.int_in prng 2 9)
           ~profile:(Uniform (Prng.int_in prng 1 3)))
        ~objects:(Prng.int_in prng 1 3)
    | 2 ->
      let tree, _ = Helpers.instance seed in
      Workload.empty tree ~objects:(Prng.int_in prng 1 3)
    | _ ->
      let tree =
        Tree.make ~kinds:[| Tree.Processor |] ~edges:[]
          ~bus_bandwidth:(fun _ -> 1) ()
      in
      let w = Workload.empty tree ~objects:2 in
      Workload.set_read w ~obj:0 0 (Prng.int prng 5);
      Workload.set_write w ~obj:1 0 (Prng.int prng 5);
      w
  in
  let leaves = Array.to_list (Tree.leaves_array (Workload.tree w)) in
  let copies =
    Array.init (Workload.num_objects w) (fun _ ->
        match Prng.int prng 3 with
        | 0 -> leaves
        | 1 -> [ Prng.pick prng leaves ]
        | _ ->
          List.sort_uniq compare
            (Prng.pick prng leaves
            :: List.filter (fun _ -> Prng.bool prng) leaves))
  in
  (w, copies)

(* The evaluator's bottleneck heads the shared ranking, and every
   congestion figure agrees exactly on the same copy sets. *)
let prop_ties_rate_alike seed =
  let w, copies = tie_instance seed in
  let tree = Workload.tree w in
  let p = Placement.nearest w ~copies in
  let c = Placement.evaluate w p in
  let head =
    match Placement.rank_sites tree c ~k:1 with
    | [] -> (`Edge 0, 0.)
    | site :: _ -> site
  in
  head = (c.Placement.bottleneck, c.Placement.value)
  && Loads.congestion (Loads.of_copies w copies) = c.Placement.value
  && Attribution.congestion_value (Attribution.of_placement w p)
     = c.Placement.value
  && Placement.congestion w p = c.Placement.value

let suite =
  [
    Helpers.qt ~count:60 "sums reproduce the evaluator exactly"
      Helpers.seed_arb prop_sums_reproduce_evaluator;
    Helpers.qt ~count:60 "engine and placement attribution agree"
      Helpers.seed_arb prop_engine_matches_placement_attribution;
    Helpers.qt ~count:25 "attribution bit-identical at jobs 1/2/4"
      Helpers.seed_arb prop_attribution_invariant_across_jobs;
    Helpers.tc "json and dot renderings" test_renderings;
    Helpers.qt ~count:200 "ties rate alike in every evaluator"
      Helpers.seed_arb prop_ties_rate_alike;
  ]
