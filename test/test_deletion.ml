module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Deletion = Hbn_core.Deletion
module Deletion_ref = Hbn_ref.Deletion_ref
module Generators = Hbn_workload.Generators
module Prng = Hbn_prng.Prng

(* The split-size rule of the oracle; the library is tied to it by the
   oracle property below. *)
let test_split_sizes_basic () =
  Alcotest.(check (list int)) "fits in one" [ 5 ]
    (Deletion_ref.split_sizes ~served:5 ~kappa:3);
  Alcotest.(check (list int)) "exact double" [ 3; 3 ]
    (Deletion_ref.split_sizes ~served:6 ~kappa:3);
  Alcotest.(check (list int)) "uneven" [ 4; 3 ]
    (Deletion_ref.split_sizes ~served:7 ~kappa:3);
  Alcotest.(check (list int)) "many" [ 3; 3; 3; 3 ]
    (Deletion_ref.split_sizes ~served:12 ~kappa:3)

let test_split_sizes_validation () =
  Alcotest.check_raises "kappa 0"
    (Invalid_argument "Deletion_ref.split_sizes: kappa must be positive")
    (fun () -> ignore (Deletion_ref.split_sizes ~served:5 ~kappa:0));
  Alcotest.check_raises "served < kappa"
    (Invalid_argument "Deletion_ref.split_sizes: served < kappa") (fun () ->
      ignore (Deletion_ref.split_sizes ~served:2 ~kappa:3))

let prop_split_sizes_invariants seed =
  let prng = Prng.create seed in
  let kappa = Prng.int_in prng 1 50 in
  let served = kappa + Prng.int prng 500 in
  let sizes = Deletion_ref.split_sizes ~served ~kappa in
  List.fold_left ( + ) 0 sizes = served
  && List.for_all (fun s -> s >= kappa && s <= 2 * kappa) sizes

let make_workload t specs =
  let w = Workload.empty t ~objects:1 in
  List.iter
    (fun (leaf, r, wr) ->
      Workload.set_read w ~obj:0 leaf r;
      Workload.set_write w ~obj:0 leaf wr)
    specs;
  w

let run_deletion w =
  let cs = Nibble.place w ~obj:0 in
  Deletion.run w cs

let test_deletion_merges_into_parent () =
  (* Star, reads spread so nibble puts copies on every node, but each leaf
     copy serves fewer than kappa requests: the leaf copies are deleted and
     everything ends up merged upward. *)
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [ (1, 4, 1); (2, 4, 1); (3, 4, 1) ] in
  (* kappa = 3; each leaf weight 5 > 3 so nibble places copies on all
     leaves and the bus. Each leaf copy serves 5 in [3,6]: kept! *)
  let out = run_deletion w in
  Alcotest.(check int) "bus copy deleted (serves 0 < 3)" 1 out.Deletion.deletions;
  Alcotest.(check int) "three copies survive" 3 (List.length out.Deletion.copies);
  List.iter
    (fun c ->
      Alcotest.(check bool) "on a leaf" true (Tree.is_leaf t c.Copy.node))
    out.Deletion.copies

let test_deletion_starved_leaves () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  (* kappa = 8: every node's copy serves fewer than 8 except after
     accumulation at the gravity node. *)
  let w = make_workload t [ (1, 0, 4); (2, 0, 4); (3, 2, 0) ] in
  let out = run_deletion w in
  (* Nibble: total 10, kappa 8; only gravity holds a copy (subtree weights
     below 8)... then nothing to delete and it serves everything. *)
  Alcotest.(check int) "single copy" 1 (List.length out.Deletion.copies);
  let c = List.hd out.Deletion.copies in
  Alcotest.(check int) "serves all" 10 c.Copy.served

let test_root_deletion_reassigns_to_nearest () =
  (* A two-bus spine where the gravity bus's copy serves too little and
     must hand its requests to the nearest surviving copy. *)
  let t =
    Builders.caterpillar ~spine:2 ~leaves_per_bus:2 ~profile:(Builders.Uniform 1)
  in
  (* Nodes: bus0 {1,2}, bus3 {4,5}. Heavy writers on 1 and 2; light
     writer on 4. kappa = 9. *)
  let w = make_workload t [ (1, 3, 4); (2, 3, 4); (4, 0, 1) ] in
  let out = run_deletion w in
  (* Whatever the component shape, post-deletion accounting must hold. *)
  let total_served =
    List.fold_left (fun a c -> a + c.Copy.served) 0 out.Deletion.copies
  in
  Alcotest.(check int) "all requests served" 15 total_served;
  List.iter
    (fun c ->
      Alcotest.(check bool) "Obs 3.2 lower" true (c.Copy.served >= 9);
      Alcotest.(check bool) "Obs 3.2 upper" true (c.Copy.served <= 18))
    out.Deletion.copies

let test_splitting_creates_clones () =
  (* One leaf hammers an object with writes, others write a little:
     kappa large, the single surviving copy serves > 2*kappa? Build the
     opposite: tiny kappa, huge read volume concentrated on the gravity
     copy -> splitting. *)
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 1) in
  (* kappa = 1; leaf 1 reads 10 (gets its own copy: 10 > 1), others read
     1 each (no copies: 1 <= 1, wait 1 is not > 1). Bus subtree... *)
  let w = make_workload t [ (1, 10, 1); (2, 1, 0); (3, 1, 0); (4, 1, 0) ] in
  let out = run_deletion w in
  List.iter
    (fun c ->
      Alcotest.(check bool) "within [kappa, 2 kappa]" true
        (c.Copy.served >= 1 && c.Copy.served <= 2))
    out.Deletion.copies;
  Alcotest.(check bool) "clones were created" true (out.Deletion.splits > 0);
  (* Total served is preserved by splitting. *)
  let total =
    List.fold_left (fun a c -> a + c.Copy.served) 0 out.Deletion.copies
  in
  Alcotest.(check int) "total preserved" 14 total

let test_groups_never_split_reads_writes_incoherently () =
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [ (1, 10, 1); (2, 1, 0); (3, 1, 0); (4, 1, 0) ] in
  let out = run_deletion w in
  (* Every group fragment keeps nonnegative reads/writes and group totals
     over all copies match the workload. *)
  let reads = Array.make (Tree.n t) 0 and writes = Array.make (Tree.n t) 0 in
  List.iter
    (fun c ->
      List.iter
        (fun g ->
          Alcotest.(check bool) "nonneg" true
            (g.Nibble.reads >= 0 && g.Nibble.writes >= 0);
          reads.(g.Nibble.leaf) <- reads.(g.Nibble.leaf) + g.Nibble.reads;
          writes.(g.Nibble.leaf) <- writes.(g.Nibble.leaf) + g.Nibble.writes)
        c.Copy.groups)
    out.Deletion.copies;
  List.iter
    (fun leaf ->
      Alcotest.(check int) "reads covered" (Workload.reads w ~obj:0 leaf)
        reads.(leaf);
      Alcotest.(check int) "writes covered" (Workload.writes w ~obj:0 leaf)
        writes.(leaf))
    (Tree.leaves t)

let test_degenerate_inputs_rejected () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let w = make_workload t [ (1, 3, 0) ] in
  let cs = Nibble.place w ~obj:0 in
  Alcotest.check_raises "kappa 0"
    (Invalid_argument "Deletion.run: kappa must be positive") (fun () ->
      ignore (Deletion.run w cs))

(* Observation 3.2 on random instances, object by object. *)
let prop_observation_3_2 seed =
  let _, w = Helpers.instance seed in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    let kappa = Workload.write_contention w ~obj in
    if kappa > 0 && Workload.total_weight w ~obj > 0 then begin
      let cs = Nibble.place w ~obj in
      let out = Deletion.run w cs in
      List.iter
        (fun c ->
          if c.Copy.served < kappa || c.Copy.served > 2 * kappa then ok := false)
        out.Deletion.copies;
      (* Served totals are conserved. *)
      let total =
        List.fold_left (fun a c -> a + c.Copy.served) 0 out.Deletion.copies
      in
      if total <> Workload.total_weight w ~obj then ok := false
    end
  done;
  !ok

let prop_copies_subset_of_component seed =
  let _, w = Helpers.instance seed in
  let ok = ref true in
  for obj = 0 to Workload.num_objects w - 1 do
    if
      Workload.write_contention w ~obj > 0 && Workload.total_weight w ~obj > 0
    then begin
      let cs = Nibble.place w ~obj in
      let out = Deletion.run w cs in
      List.iter
        (fun c ->
          if not (List.mem c.Copy.node cs.Nibble.nodes) then ok := false)
        out.Deletion.copies
    end
  done;
  !ok

(* The instances the oracle property draws: the shaped instances,
   hotspot caterpillars up to spine 300, and low-rate caterpillars where
   one heavy writer sets κ and every other leaf reads at most once, so
   one-request copies hand their requests up for dozens of levels before
   a copy reaches κ. *)
let oracle_instance seed =
  let prng = Prng.create (seed + 9090) in
  match seed mod 3 with
  | 0 -> snd (Helpers.shaped_instance seed)
  | 1 ->
    let tree =
      Builders.caterpillar ~spine:(Prng.int_in prng 2 300)
        ~leaves_per_bus:(Prng.int_in prng 1 3) ~profile:(Builders.Uniform 2)
    in
    Generators.hotspot ~prng tree ~objects:(Prng.int_in prng 1 3)
      ~writers_per_object:(Prng.int_in prng 1 4)
      ~write_rate:(Prng.int_in prng 1 8) ~read_rate:(Prng.int_in prng 1 6)
  | _ ->
    let spine = Prng.int_in prng 150 300 in
    let tree =
      Builders.caterpillar ~spine ~leaves_per_bus:(Prng.int_in prng 1 2)
        ~profile:(Builders.Uniform 1)
    in
    let w = Workload.empty tree ~objects:1 in
    let leaves = Tree.leaves_array tree in
    Array.iter
      (fun leaf -> if Prng.int prng 4 > 0 then Workload.set_read w ~obj:0 leaf 1)
      leaves;
    Workload.set_write w ~obj:0
      leaves.(Prng.int prng (Array.length leaves))
      (Prng.int_in prng 50 (spine / 3));
    w

(* Bit-identity with the n-table oracle on every object: the same copies
   (ids, nodes, groups in order, served counts), deletions, splits and
   ids used. *)
let oracle_runs seed =
  let w = oracle_instance seed in
  List.filter_map
    (fun obj ->
      if Workload.write_contention w ~obj = 0 || Workload.total_weight w ~obj = 0
      then None
      else
        let cs = Nibble.place w ~obj in
        let want, info = Deletion_ref.deletion_with_info w cs in
        Some (Deletion.run w cs = want, info))
    (List.init (Workload.num_objects w) Fun.id)

let prop_matches_n_table_oracle seed =
  List.for_all fst (oracle_runs seed)

(* The property is not vacuous: over a fixed run of its instances, the
   library matches the oracle through gravity-center deletions, splits of
   the copy that took the center's requests, and absorb chains of at
   least 50 levels. *)
let test_oracle_property_coverage () =
  let centers = ref 0 and host_splits = ref 0 and chains = ref 0 in
  for seed = 0 to 299 do
    List.iter
      (fun (same, info) ->
        if not same then Alcotest.failf "seed %d: deletion differs from the oracle" seed;
        if info.Deletion_ref.gravity_deleted then incr centers;
        if info.Deletion_ref.host_split then incr host_splits;
        if info.Deletion_ref.longest_chain >= 50 then incr chains)
      (oracle_runs seed)
  done;
  Alcotest.(check bool) "a gravity center was deleted" true (!centers > 0);
  Alcotest.(check bool) "its survivor then split" true (!host_splits > 0);
  Alcotest.(check bool) "an absorb chain ran 50 levels" true (!chains > 0)

(* Far beyond the bench sizes: a caterpillar of 5·10^4 buses, one heavy
   writer at one end and a 1-read leaf on every bus, so copies hand
   their requests up for thousands of levels before one reaches κ. The
   library must match the oracle, raise nothing and keep its recursion
   within the stack. *)
let test_deep_caterpillar () =
  let spine = 50_000 in
  let t = Builders.caterpillar ~spine ~leaves_per_bus:1 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  let leaves = Tree.leaves_array t in
  Array.iter (fun leaf -> Workload.set_read w ~obj:0 leaf 1) leaves;
  Workload.set_write w ~obj:0 leaves.(0) 3000;
  let cs = Nibble.place w ~obj:0 in
  let want, info = Deletion_ref.deletion_with_info w cs in
  Alcotest.(check bool) "chains run thousands of levels" true
    (info.Deletion_ref.longest_chain >= 2000);
  Alcotest.(check bool) "matches the oracle" true (Deletion.run w cs = want)

let suite =
  [
    Helpers.tc "split sizes basic" test_split_sizes_basic;
    Helpers.tc "split sizes validation" test_split_sizes_validation;
    Helpers.tc "deletion removes the starved bus copy" test_deletion_merges_into_parent;
    Helpers.tc "single gravity copy absorbs everything" test_deletion_starved_leaves;
    Helpers.tc "post-deletion accounting (Obs 3.2)" test_root_deletion_reassigns_to_nearest;
    Helpers.tc "splitting creates clones" test_splitting_creates_clones;
    Helpers.tc "group fragments stay coherent" test_groups_never_split_reads_writes_incoherently;
    Helpers.tc "kappa=0 rejected" test_degenerate_inputs_rejected;
    Helpers.qt "split sizes invariants" Helpers.seed_arb prop_split_sizes_invariants;
    Helpers.qt "Observation 3.2 on random instances" Helpers.seed_arb prop_observation_3_2;
    Helpers.qt "surviving copies stay in the component" Helpers.seed_arb prop_copies_subset_of_component;
    Helpers.qt ~count:150 "deletion matches the n-table oracle" Helpers.seed_arb
      prop_matches_n_table_oracle;
    Helpers.tc "oracle property covers center deletions and deep chains"
      test_oracle_property_coverage;
    Helpers.slow "deep caterpillar (spine 5e4) matches the oracle"
      test_deep_caterpillar;
  ]
