(* Tree.Flat: the structure-of-arrays kernels must agree bit-for-bit —
   values *and* iteration orders — with the list-building reference walks
   in [Tree_ref], on arbitrary trees, with one shared scratch to exercise
   the stamp-based reuse discipline. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload

let random_nodes prng tree k =
  Array.init k (fun _ -> Prng.int prng (Tree.n tree))

(* LCA and distance against the rooted walk and the path length. *)
let prop_lca_distance_agree seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let r = Tree.rooting tree in
  Array.for_all
    (fun u ->
      let v = Prng.int prng (Tree.n tree) in
      Flat.lca fl u v = Tree_ref.lca r u v
      && Flat.distance fl u v = List.length (Tree_ref.path_edges tree u v))
    (random_nodes prng tree 40)

(* iter_path must replay the reference order (u up to the LCA, then down
   to v); iter_path_unordered the same edge set. *)
let prop_path_iteration_agrees seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  Array.for_all
    (fun u ->
      let v = Prng.int prng (Tree.n tree) in
      let want = Tree_ref.path_edges tree u v in
      let unordered = Tree_ref.collect (Flat.iter_path_unordered fl u v) in
      let sum =
        Flat.fold_path fl scratch u v ~init:0 ~f:(fun a e -> a + e)
      in
      Tree_ref.collect (Flat.iter_path fl scratch u v) = want
      && List.sort compare unordered = List.sort compare want
      && sum = List.fold_left ( + ) 0 want)
    (random_nodes prng tree 30)

let prop_path_to_root_agrees seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let root = (Tree.rooting tree).Tree.root in
  Array.for_all
    (fun v ->
      Tree_ref.collect (Flat.iter_path_to_root fl v)
      = Tree_ref.path_edges tree v root)
    (random_nodes prng tree 20)

(* Steiner scans in the reference emission order, on random node
   multisets (duplicates and singletons included on purpose). *)
let prop_steiner_agrees seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  List.for_all
    (fun _ ->
      let k = Prng.int_in prng 1 6 in
      let nodes =
        List.init k (fun _ -> Prng.int prng (Tree.n tree))
      in
      let nodes = if Prng.int prng 3 = 0 then nodes @ nodes else nodes in
      Tree_ref.collect
        (Flat.iter_steiner fl scratch ~nodes:(fun mark -> List.iter mark nodes))
      = Tree_ref.steiner_edges tree nodes)
    (List.init 25 Fun.id)

let prop_subtree_sums_agree seed =
  let prng = Prng.create (seed + 13) in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let n = Tree.n tree in
  let pad = Prng.int prng 5 in
  let src = Array.init (pad + n) (fun _ -> Prng.int prng 20) in
  let want =
    Tree.subtree_sums (Tree.rooting tree) (Array.sub src pad n)
  in
  Flat.subtree_sums_into fl scratch ~src ~src_off:pad;
  Array.sub scratch.Flat.Scratch.acc 0 n = want

(* nearest_into against the pairwise oracle on every node, through one
   shared scratch. Three shapes: the usual random trees; stars of up to
   40 leaves with copies on leaves only, where every copy is two hops
   from every other leaf and the tie rule alone decides; caterpillars
   with spines up to 60, where the sweeps carry keys over long paths.
   Copy multisets include duplicates and the empty set. *)
let prop_nearest_into_agrees seed =
  let prng = Prng.create (seed + 29) in
  let profile = Hbn_tree.Builders.Uniform 1 in
  let tree, leaves_only =
    match Prng.int prng 3 with
    | 0 -> (Helpers.random_tree prng, false)
    | 1 -> (Hbn_tree.Builders.star ~leaves:(Prng.int_in prng 2 40) ~profile, true)
    | _ ->
      ( Hbn_tree.Builders.caterpillar ~spine:(Prng.int_in prng 1 60)
          ~leaves_per_bus:(Prng.int_in prng 1 3) ~profile,
        false )
  in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let n = Tree.n tree in
  let pool = if leaves_only then Tree.leaves_array tree else Array.init n Fun.id in
  List.for_all
    (fun _ ->
      let copies =
        List.init (Prng.int prng 7) (fun _ ->
            pool.(Prng.int prng (Array.length pool)))
      in
      let copies = if Prng.int prng 3 = 0 then copies @ copies else copies in
      Flat.nearest_into fl scratch ~copies:(fun mark -> List.iter mark copies);
      List.for_all
        (fun v ->
          let key = scratch.Flat.Scratch.acc.(v) in
          match Tree_ref.nearest_copy tree copies v with
          | -1, _ -> key = max_int
          | c, d -> key = (d * n) + c)
        (List.init n Fun.id))
    (List.init 8 Fun.id)

(* Scratch reuse: interleaving every kernel through one scratch must give
   the same answers as fresh buffers — the stamp discipline cannot leak
   state between operations. *)
let prop_scratch_reuse_deterministic seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let fl = Flat.of_tree tree in
  let shared = Flat.Scratch.create fl in
  let pairs = Array.init 12 (fun _ -> (Prng.int prng (Tree.n tree), Prng.int prng (Tree.n tree))) in
  let run scratch_of =
    Array.to_list pairs
    |> List.concat_map (fun (u, v) ->
           let path = ref [] in
           Flat.iter_path fl (scratch_of ()) u v (fun e -> path := e :: !path);
           let st = ref [] in
           Flat.iter_steiner fl (scratch_of ())
             ~nodes:(fun mark ->
               mark u;
               mark v)
             (fun e -> st := e :: !st);
           [ !path; !st ])
  in
  run (fun () -> shared) = run (fun () -> Flat.Scratch.create fl)

(* The workload's flat rows against the raw read/write matrices. *)
let prop_workload_flat_agrees_with_matrices seed =
  let prng = Prng.create seed in
  let tree = Helpers.random_tree prng in
  let w = Helpers.random_workload prng tree in
  let f = Workload.flat w in
  let nodes = List.init (Tree.n tree) Fun.id in
  let sum g = List.fold_left (fun acc v -> acc + g v) 0 nodes in
  List.for_all
    (fun obj ->
      let reads = Workload.reads w ~obj and writes = Workload.writes w ~obj in
      let requesting =
        List.filter
          (fun v -> Tree.is_leaf tree v && reads v + writes v > 0)
          nodes
      in
      let req = ref [] in
      Workload.Flat.iter_requesting f ~obj (fun leaf -> req := leaf :: !req);
      List.for_all
        (fun v -> Workload.Flat.weight f ~obj v = reads v + writes v)
        nodes
      && Workload.Flat.kappa f ~obj = sum writes
      && Workload.Flat.total_weight f ~obj = sum reads + sum writes
      && Workload.Flat.num_requesting f ~obj = List.length requesting
      && List.rev !req = requesting)
    (List.init (Workload.num_objects w) Fun.id)

(* The difference kernel against the edge-by-edge walks: random paths
   (some with [u = v]) and Steiner sets (a single node, duplicates, and
   sets of up to 80 entries to exercise the heapsort) recorded into one
   array and read out once must give what folding [iter_path] and
   [iter_steiner] over the same amounts gives. Shapes: random trees,
   stars and caterpillars up to spine 60. *)
let prop_diff_matches_walks seed =
  let tree, _ = Helpers.shaped_instance seed in
  let prng = Prng.create (seed + 41) in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let n = Tree.n tree and m = max 1 (Tree.num_edges tree) in
  let d = Array.make n 0 and want = Array.make m 0 in
  let add a e = want.(e) <- want.(e) + a in
  for _ = 1 to Prng.int_in prng 0 30 do
    let u = Prng.int prng n in
    let v = if Prng.int prng 5 = 0 then u else Prng.int prng n in
    let a = Prng.int prng 10 in
    Flat.Diff.path fl d u v a;
    Flat.iter_path fl scratch u v (add a)
  done;
  for _ = 1 to Prng.int_in prng 0 8 do
    let k =
      if Prng.int prng 4 = 0 then Prng.int_in prng 7 40 else Prng.int_in prng 1 6
    in
    let nodes = List.init k (fun _ -> Prng.int prng n) in
    let nodes = if Prng.int prng 3 = 0 then nodes @ nodes else nodes in
    let a = Prng.int_in prng 1 9 in
    let buf = Array.of_list nodes in
    Flat.Diff.steiner fl d ~nodes:buf ~len:(Array.length buf) a;
    Flat.iter_steiner fl scratch ~nodes:(fun mark -> List.iter mark nodes) (add a)
  done;
  let got = Array.make m 0 in
  Flat.Diff.edges_into fl d ~dst:got;
  got = want

(* Mutation invalidates the flat cache. *)
let test_flat_invalidated_on_write () =
  let tree = Hbn_tree.Builders.star ~leaves:4 ~profile:(Hbn_tree.Builders.Uniform 1) in
  let w = Workload.empty tree ~objects:1 in
  let leaf = List.hd (Tree.leaves tree) in
  Workload.set_read w ~obj:0 leaf 3;
  let f = Workload.flat w in
  Alcotest.(check int) "weight after set_read" 3
    (Workload.Flat.weight f ~obj:0 leaf);
  Workload.set_write w ~obj:0 leaf 2;
  let f = Workload.flat w in
  Alcotest.(check int) "weight rebuilt after set_write" 5
    (Workload.Flat.weight f ~obj:0 leaf);
  Alcotest.(check int) "kappa rebuilt" 2 (Workload.Flat.kappa f ~obj:0)

let suite =
  [
    Helpers.qt ~count:60 "flat LCA/distance agree with rooted walk"
      Helpers.seed_arb prop_lca_distance_agree;
    Helpers.qt ~count:60 "iter_path replays Tree.path_edges order"
      Helpers.seed_arb prop_path_iteration_agrees;
    Helpers.qt ~count:40 "path-to-root iteration matches path_edges"
      Helpers.seed_arb prop_path_to_root_agrees;
    Helpers.qt ~count:60 "iter_steiner replays Tree.steiner_edges order"
      Helpers.seed_arb prop_steiner_agrees;
    Helpers.qt ~count:40 "subtree_sums_into matches Tree.subtree_sums"
      Helpers.seed_arb prop_subtree_sums_agree;
    Helpers.qt ~count:80 "nearest_into matches the pairwise nearest-copy scan"
      Helpers.seed_arb prop_nearest_into_agrees;
    Helpers.qt ~count:120 "Diff kernel equals the path and Steiner walks"
      Helpers.seed_arb prop_diff_matches_walks;
    Helpers.qt ~count:40 "shared scratch gives fresh-buffer answers"
      Helpers.seed_arb prop_scratch_reuse_deterministic;
    Helpers.qt ~count:60 "Workload.Flat rows agree with read/write matrices"
      Helpers.seed_arb prop_workload_flat_agrees_with_matrices;
    Helpers.tc "flat cache invalidated by set_read/set_write"
      test_flat_invalidated_on_write;
  ]
