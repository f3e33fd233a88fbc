(* Bechamel microbenchmarks: B1-B4 cover per-phase cost of the strategy
   on a fixed mid-size instance, B5 the packet scheduler under a backlog,
   B6 (a plain timed loop) what instrumentation costs with tracing off;
   F1-F6 cover the Tree.Flat primitives the
   hot path is built from (path folds, batched LCA, Steiner scans with a
   reused and a fresh scratch, next hops towards a target, nearest-copy
   sweeps, a whole load build edge by edge and by endpoint differences),
   F7 the deletion pass over every object of the place-deep inputs.
   Results print as ns/run estimated by OLS. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Deletion = Hbn_core.Deletion
module Deletion_ref = Hbn_ref.Deletion_ref
module Sim = Hbn_sim.Sim
module Sim_ref = Hbn_ref.Sim_ref
module Table = Hbn_util.Table
module Trace = Hbn_obs.Trace

open Bechamel
open Toolkit

let instance () =
  let prng = Prng.create 4242 in
  let tree = Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2) in
  let w = Generators.uniform ~prng tree ~objects:16 ~max_rate:8 in
  w

(* B4's instance at scale 8 never builds a backlog, so its cost is the
   hop builder's. B5 is the e2e simulate workload's shape: many objects at
   low rates on a 3-ary height-4 tree at scale 2, where thousands of hops
   wait per tick. Its two rows schedule the same backlog: [Sim.run]
   touches only the hops it can serve plus one refused head per waiting
   edge, the reference scan visits every waiting hop every tick. *)
let backlog_instance () =
  let prng = Prng.create 4242 in
  let tree = Builders.balanced ~arity:3 ~height:4 ~profile:(Builders.Uniform 2) in
  let w = Generators.uniform ~prng tree ~objects:48 ~max_rate:2 in
  (w, (Strategy.run w).Strategy.placement)

let backlog_runs =
  [
    ("per-edge merge, Sim", fun w p -> Sim.run ~scale:2 w p);
    ("whole-queue scan, Sim_ref", fun w p -> Sim_ref.run ~scale:2 w p);
  ]

let tests =
  let w = instance () in
  let placement = (Strategy.run w).Strategy.placement in
  let backlog_w, backlog_placement = backlog_instance () in
  Test.make_grouped ~name:"hbn"
    ([
      Test.make ~name:"B1 nibble placement"
        (Staged.stage (fun () -> ignore (Nibble.placement w)));
      Test.make ~name:"B2 full strategy"
        (Staged.stage (fun () -> ignore (Strategy.run w)));
      Test.make ~name:"B3 congestion evaluation"
        (Staged.stage (fun () -> ignore (Placement.evaluate w placement)));
      Test.make ~name:"B4 packet simulation (scale 8)"
        (Staged.stage (fun () -> ignore (Sim.run ~scale:8 w placement)));
    ]
    @ List.map
        (fun (rname, run) ->
          Test.make
            ~name:(Printf.sprintf "B5 packet simulation (backlog, %s)" rname)
            (Staged.stage (fun () -> ignore (run backlog_w backlog_placement))))
        backlog_runs)

(* The flat-kernel instance is bigger than B1-B5's: primitive costs only
   separate from loop overhead on a few hundred nodes. The leaf pairs,
   Steiner node sets (also F5's and F6's copy sets) and (node, target)
   hops are drawn once, outside the timed region. *)
let flat_instance () =
  let tree = Builders.balanced ~arity:4 ~height:4 ~profile:(Builders.Uniform 2) in
  let fl = Flat.of_tree tree in
  let prng = Prng.create 20260809 in
  let leaves = Tree.leaves_array tree in
  let nl = Array.length leaves in
  let pairs =
    Array.init 256 (fun _ ->
        (leaves.(Prng.int prng nl), leaves.(Prng.int prng nl)))
  in
  let steiner_sets =
    Array.init 64 (fun _ ->
        List.init (2 + Prng.int prng 6) (fun _ -> leaves.(Prng.int prng nl)))
  in
  let n = Tree.n tree in
  let hops =
    Array.init 256 (fun _ ->
        let g = Prng.int prng n in
        ((g + 1 + Prng.int prng (n - 1)) mod n, g))
  in
  (fl, pairs, steiner_sets, hops)

(* F6: one load build over the instance — every leaf pair a request path
   with amount 1, every F3 set a copy set whose Steiner tree carries 1 —
   walked edge by edge, or recorded by endpoint differences and read out
   in one subtree sum. Both write every edge's load into [loads]. *)
let loads_by_walks fl scratch pairs steiner_sets loads =
  Array.fill loads 0 (Array.length loads) 0;
  let add e = loads.(e) <- loads.(e) + 1 in
  Array.iter (fun (u, v) -> Flat.iter_path fl scratch u v add) pairs;
  Array.iter
    (fun nodes ->
      Flat.iter_steiner fl scratch ~nodes:(fun mark -> List.iter mark nodes) add)
    steiner_sets

let loads_by_diff fl d buf pairs steiner_sets loads =
  Array.fill d 0 (Array.length d) 0;
  Array.iter (fun (u, v) -> Flat.Diff.path fl d u v 1) pairs;
  Array.iter
    (fun nodes ->
      let len = Array.length nodes in
      Array.blit nodes 0 buf 0 len;
      Flat.Diff.steiner fl d ~nodes:buf ~len 1)
    steiner_sets;
  Flat.Diff.edges_into fl d ~dst:loads

(* F7: Step 2 on the e2e place-deep shape (a height-1000 caterpillar, 32
   write-heavy hotspot objects): [Deletion.run] on every object that
   reaches it, through one scratch. The copy sets are placed once,
   outside the timed region. *)
let deletion_instance () =
  let prng = Prng.create 1 in
  let tree =
    Builders.caterpillar ~spine:1000 ~leaves_per_bus:2
      ~profile:(Builders.Uniform 2)
  in
  let w =
    Generators.hotspot ~prng tree ~objects:32 ~writers_per_object:4
      ~write_rate:8 ~read_rate:6
  in
  let sets =
    Array.to_list (Nibble.place_all w)
    |> List.filter (fun cs ->
           cs.Nibble.nodes <> []
           && Workload.write_contention w ~obj:cs.Nibble.obj > 0)
  in
  (w, sets, Flat.Scratch.create (Flat.of_tree (Workload.tree w)))

let deletions (w, sets, scratch) =
  List.map (fun cs -> Deletion.run ~scratch w cs) sets

let flat_tests =
  let fl, pairs, steiner_sets, hops = flat_instance () in
  let deletion_input = deletion_instance () in
  let scratch = Flat.Scratch.create fl in
  let set_arrays = Array.map Array.of_list steiner_sets in
  let loads = Array.make (max 1 fl.Flat.m) 0 in
  let d = Array.make fl.Flat.n 0 and buf = Array.make fl.Flat.n 0 in
  Test.make_grouped ~name:"flat"
    [
      Test.make ~name:"F1 path fold (flat, scratch reuse)"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             Array.iter
               (fun (u, v) ->
                 acc :=
                   Flat.fold_path fl scratch u v ~init:!acc ~f:(fun a e ->
                       a + e))
               pairs;
             ignore !acc));
      Test.make ~name:"F2 batched LCA (flat O(1))"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             Array.iter (fun (u, v) -> acc := !acc + Flat.lca fl u v) pairs;
             ignore !acc));
      Test.make ~name:"F3 steiner scan (scratch reuse)"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             Array.iter
               (fun nodes ->
                 Flat.iter_steiner fl scratch
                   ~nodes:(fun mark -> List.iter mark nodes)
                   (fun e -> acc := !acc + e))
               steiner_sets;
             ignore !acc));
      Test.make ~name:"F3' steiner scan (fresh scratch per call)"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             Array.iter
               (fun nodes ->
                 let fresh = Flat.Scratch.create fl in
                 Flat.iter_steiner fl fresh
                   ~nodes:(fun mark -> List.iter mark nodes)
                   (fun e -> acc := !acc + e))
               steiner_sets;
             ignore !acc));
      Test.make ~name:"F4 next_hop (batched)"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             Array.iter (fun (v, g) -> acc := !acc + Flat.next_hop fl v g) hops;
             ignore !acc));
      Test.make ~name:"F5 nearest sweep (scratch reuse)"
        (Staged.stage (fun () ->
             Array.iter
               (fun nodes ->
                 Flat.nearest_into fl scratch ~copies:(fun mark ->
                     List.iter mark nodes))
               steiner_sets));
      Test.make ~name:"F6 load build (path and Steiner walks)"
        (Staged.stage (fun () ->
             loads_by_walks fl scratch pairs steiner_sets loads));
      Test.make ~name:"F6' load build (endpoint differences)"
        (Staged.stage (fun () ->
             loads_by_diff fl d buf pairs set_arrays loads));
      Test.make ~name:"F7 deletion pass (place-deep inputs)"
        (Staged.stage (fun () -> ignore (deletions deletion_input)));
    ]

let run_group ~banner tests =
  print_endline banner;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let quota = Time.second 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Table.create [ "benchmark"; "ns/run"; "r^2" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Table.fmt_float e
        | Some es ->
          String.concat "," (List.map (Table.fmt_float ~digits:1) es)
        | None -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Table.fmt_float r
        | None -> "-"
      in
      Table.add_row table [ name; est; r2 ])
    (List.sort compare rows);
  Table.print table

(* B6: with no sink installed every Trace entry point is one branch on
   the sink slot. Each loop makes [calls] calls and counts the ones that
   saw tracing on, so the calls cannot be dropped and a sink left
   installed is caught; the per-call cost is the loop's wall time over
   [calls]. Returns the per-call ns of [enabled] and of a [span]/[finish]
   pair. *)
let tracing_disabled ~calls =
  let per_call loop =
    let t0 = Unix.gettimeofday () in
    let on = loop () in
    let dt = Unix.gettimeofday () -. t0 in
    if on <> 0 then failwith "B6: a trace sink is installed";
    dt *. 1e9 /. float_of_int calls
  in
  let enabled_ns =
    per_call (fun () ->
        let on = ref 0 in
        for _ = 1 to calls do
          if Trace.enabled () then incr on
        done;
        !on)
  in
  let span_ns =
    per_call (fun () ->
        let on = ref 0 in
        for _ = 1 to calls do
          let sp = Trace.span "b6" in
          if sp != Trace.none then incr on;
          Trace.finish sp
        done;
        !on)
  in
  (enabled_ns, span_ns)

let run () =
  run_group ~banner:"\n=== B1-B5: Bechamel microbenchmarks ===" tests;
  let calls = 10_000_000 in
  let enabled_ns, span_ns = tracing_disabled ~calls in
  Printf.printf "\n=== B6: tracing disabled (%d calls each) ===\n" calls;
  let table = Table.create [ "call"; "ns/call" ] in
  Table.add_row table [ "Trace.enabled"; Table.fmt_float enabled_ns ];
  Table.add_row table [ "Trace.span + Trace.finish"; Table.fmt_float span_ns ];
  Table.print table

let run_flat () =
  run_group ~banner:"\n=== F1-F7: Tree.Flat kernels and the deletion pass ==="
    flat_tests

(* Fast correctness pass over the same kernels, for `dune runtest`:
   the flat kernels are checked against each other on the bench instance
   (distance = ordered path length, unordered path = same edge multiset,
   Steiner tree of a pair = its path, a next hop is a neighbour one step
   closer to its target, a nearest-copy sweep picks on every node the
   copy a pairwise scan does, the difference kernel records on every
   Steiner set alone and on the whole F6 build what the walks visit),
   and every Steiner set through one shared scratch against a fresh one,
   to exercise the reuse discipline. No timing claims. *)
let smoke_flat () =
  let fl, pairs, steiner_sets, hops = flat_instance () in
  let scratch = Flat.Scratch.create fl in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  let collect iter =
    let edges = ref [] in
    iter (fun e -> edges := e :: !edges);
    List.rev !edges
  in
  let steiner scratch nodes =
    collect (Flat.iter_steiner fl scratch ~nodes:(fun mark -> List.iter mark nodes))
  in
  Array.iter
    (fun (u, v) ->
      let path = collect (Flat.iter_path fl scratch u v) in
      if Flat.distance fl u v <> List.length path then
        fail "bench/micro --smoke: distance/path length mismatch at (%d,%d)" u v;
      let sorted = List.sort compare path in
      if List.sort compare (collect (Flat.iter_path_unordered fl u v)) <> sorted
      then fail "bench/micro --smoke: unordered path mismatch at (%d,%d)" u v;
      if List.sort compare (steiner scratch [ u; v ]) <> sorted then
        fail "bench/micro --smoke: steiner of pair <> path at (%d,%d)" u v)
    pairs;
  Array.iter
    (fun (v, g) ->
      let h = Flat.next_hop fl v g in
      if Flat.distance fl v h <> 1
         || Flat.distance fl h g <> Flat.distance fl v g - 1
      then fail "bench/micro --smoke: next_hop %d towards %d is %d" v g h)
    hops;
  Array.iter
    (fun nodes ->
      if steiner scratch nodes <> steiner (Flat.Scratch.create fl) nodes then
        fail "bench/micro --smoke: shared scratch diverged from a fresh one")
    steiner_sets;
  (* The pairwise scan: copies in ascending id order, first strict
     minimum, so ties go to the lowest id. *)
  let pairwise nodes v =
    List.fold_left
      (fun (best, best_d) c ->
        let d = Flat.distance fl v c in
        if d < best_d then (c, d) else (best, best_d))
      (-1, max_int)
      (List.sort_uniq compare nodes)
  in
  let n = fl.Flat.n in
  Array.iter
    (fun nodes ->
      Flat.nearest_into fl scratch ~copies:(fun mark -> List.iter mark nodes);
      for v = 0 to n - 1 do
        let c, d = pairwise nodes v in
        if scratch.Flat.Scratch.acc.(v) <> (d * n) + c then
          fail "bench/micro --smoke: nearest sweep at node %d is not copy %d" v c
      done)
    steiner_sets;
  let m = max 1 fl.Flat.m in
  let walked = Array.make m 0 and diffed = Array.make m 0 in
  let d = Array.make n 0 and buf = Array.make n 0 in
  Array.iter
    (fun nodes ->
      let one = [| Array.of_list nodes |] in
      loads_by_walks fl scratch [||] [| nodes |] walked;
      loads_by_diff fl d buf [||] one diffed;
      if walked <> diffed then
        fail "bench/micro --smoke: difference kernel off the Steiner scan")
    steiner_sets;
  loads_by_walks fl scratch pairs steiner_sets walked;
  loads_by_diff fl d buf pairs (Array.map Array.of_list steiner_sets) diffed;
  if walked <> diffed then
    fail "bench/micro --smoke: F6 load builds disagree";
  Printf.printf
    "bench/micro --smoke: flat kernels self-consistent on %d paths, %d \
     steiner sets (shared scratch), %d next hops, %d nearest sweeps, %d \
     difference-kernel Steiner sets and one F6 load build\n"
    (Array.length pairs)
    (Array.length steiner_sets)
    (Array.length hops)
    (Array.length steiner_sets)
    (Array.length steiner_sets)

(* F7 does the work of the n-table oracle: every object's outcome is the
   same. Also reports what one pass allocates. *)
let smoke_deletion () =
  let ((w, sets, _) as input) = deletion_instance () in
  ignore (deletions input);
  let before = Gc.minor_words () in
  let outs = deletions input in
  let words = Gc.minor_words () -. before in
  List.iter2
    (fun cs out ->
      if out <> Deletion_ref.deletion w cs then begin
        Printf.eprintf "bench/micro --smoke: F7 object %d differs from the oracle\n"
          cs.Nibble.obj;
        exit 1
      end)
    sets outs;
  Printf.printf
    "bench/micro --smoke: F7 matches the n-table oracle on %d objects (%d \
     copies out); one pass allocates %.3f M minor words\n"
    (List.length sets)
    (List.fold_left (fun a o -> a + List.length o.Deletion.copies) 0 outs)
    (words /. 1e6)

(* B5's rows must do the same work: the merge and the scan return the
   same outcome on the backlog. Also reports what one [Sim.run] of the
   backlog allocates per hop, hop construction included. *)
let smoke_sim () =
  let w, placement = backlog_instance () in
  match List.map (fun (_, run) -> run w placement) backlog_runs with
  | [ merge; scan ] when merge = scan ->
    let before = Gc.minor_words () in
    ignore ((snd (List.hd backlog_runs)) w placement);
    let words = Gc.minor_words () -. before in
    Printf.printf
      "bench/micro --smoke: B5's merge and scan agree (makespan %d, %d \
       transmissions); Sim.run allocates %.2f minor words per hop\n"
      merge.Sim.makespan merge.Sim.transmissions
      (words /. float_of_int merge.Sim.transmissions)
  | outs ->
    prerr_endline
      ("bench/micro --smoke: B5 outcomes differ (makespans "
      ^ String.concat "/" (List.map (fun o -> string_of_int o.Sim.makespan) outs)
      ^ ")");
    exit 1
