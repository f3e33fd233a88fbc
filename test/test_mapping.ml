module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Mapping = Hbn_core.Mapping
module Strategy = Hbn_core.Strategy
module Prng = Hbn_prng.Prng
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

let test_basic_loads_directions () =
  (* Balanced binary tree of height 2; a copy on the root serving a leaf
     loads only downward directions; a copy on a leaf serving a leaf in
     the other subtree loads up on its side and down on the other. *)
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting t in
  let leaves = Tree.leaves t in
  let l0 = List.nth leaves 0 and l3 = List.nth leaves 3 in
  let c_root =
    Copy.make ~id:0 ~obj:0 ~kappa:1 ~node:r.Tree.root
      [ { Nibble.leaf = l0; reads = 2; writes = 1 } ]
  in
  let up, down = Mapping.basic_loads t [ c_root ] in
  Alcotest.(check int) "no upward load" 0 (Array.fold_left ( + ) 0 up);
  Alcotest.(check int) "downward load on the two path edges" 6
    (Array.fold_left ( + ) 0 down);
  let c_leaf =
    Copy.make ~id:1 ~obj:0 ~kappa:1 ~node:l0
      [ { Nibble.leaf = l3; reads = 1; writes = 0 } ]
  in
  let up2, down2 = Mapping.basic_loads t [ c_leaf ] in
  Alcotest.(check int) "two upward hops" 2 (Array.fold_left ( + ) 0 up2);
  Alcotest.(check int) "two downward hops" 2 (Array.fold_left ( + ) 0 down2)

let test_self_serving_copy_no_load () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let leaf = List.hd (Tree.leaves t) in
  let c =
    Copy.make ~id:0 ~obj:0 ~kappa:1 ~node:leaf
      [ { Nibble.leaf; reads = 5; writes = 5 } ]
  in
  let up, down = Mapping.basic_loads t [ c ] in
  Alcotest.(check int) "no load" 0
    (Array.fold_left ( + ) 0 up + Array.fold_left ( + ) 0 down)

(* Run the full strategy with the Invariant 4.2 oracle after every
   round; a violation reports the node it broke at. *)
let prop_invariant_throughout seed =
  let _, w = Helpers.instance seed in
  match Strategy.run ~on_mapping_round:Helpers.check_mapping_round w with
  | _ -> true
  | exception Failure msg -> QCheck.Test.fail_report msg

(* Step 3 reports each round twice, to the [on_mapping_round] hook and as
   a traced "mapping.round" event, and the two stay in lockstep: each
   hook call is followed by its round's event before the next call. On
   a tree of height h, round r is (init, 0) for r = 0, (up, r - 1) for
   1 <= r <= h and (down, 2h + 1 - r) after that: 2h + 1 rounds when
   anything is mapped, none otherwise. *)
let prop_round_channels_in_lockstep seed =
  let _, w = Helpers.instance seed in
  let sink, read = Sink.memory () in
  let res =
    Trace.with_sink sink (fun () ->
        Strategy.run ~on_mapping_round:(fun _ -> Trace.event "test.hook") w)
  in
  let h = Tree.height (Workload.tree w) in
  let expected r =
    if r = 0 then ("init", 0) else if r <= h then ("up", r - 1)
    else ("down", (2 * h) + 1 - r)
  in
  let attr (ev : Sink.event) k = List.assoc_opt k ev.Sink.attrs in
  let rec walk r = function
    | [] -> r
    | (hook : Sink.event) :: ev :: rest
      when hook.Sink.name = "test.hook" && ev.Sink.name = "mapping.round" ->
      let phase, level = expected r in
      if
        attr ev "round" <> Some (Sink.Int r)
        || attr ev "phase" <> Some (Sink.Str phase)
        || attr ev "level" <> Some (Sink.Int level)
      then QCheck.Test.fail_reportf "round %d is not (%s, %d)" r phase level
      else walk (r + 1) rest
    | _ -> QCheck.Test.fail_reportf "hook and event out of step at round %d" r
  in
  let rounds =
    walk 0
      (List.filter
         (fun (ev : Sink.event) ->
           ev.Sink.name = "test.hook" || ev.Sink.name = "mapping.round")
         (read ()))
  in
  let want = match res.Strategy.mapping with None -> 0 | Some _ -> (2 * h) + 1 in
  rounds = want
  || QCheck.Test.fail_reportf "%d rounds, expected %d" rounds want

let prop_movable_end_on_leaves seed =
  let _, w = Helpers.instance seed in
  let tree = Workload.tree w in
  let res = Strategy.run w in
  List.for_all (fun c -> Tree.is_leaf tree c.Copy.node) res.Strategy.copies

let prop_observation_3_3 seed =
  (* After the run: on every downward edge either L_map <= L_acc + tau, or
     L_map = 0 and L_acc < -tau (Observation 3.3). *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  match res.Strategy.mapping with
  | None -> true
  | Some stats ->
    let st = stats.Mapping.final in
    let tau = stats.Mapping.tau_max in
    let ok = ref true in
    Array.iteri
      (fun e lmap ->
        let lacc = st.Mapping.lacc_down.(e) in
        if not (lmap <= lacc + tau || (lmap = 0 && lacc < -tau)) then
          ok := false)
      st.Mapping.lmap_down;
    !ok

let prop_upward_lmap_matches_lacc seed =
  (* After the upwards phase the mapping load on every upward edge equals
     its acceptable load (the adjustment enforces it); this persists since
     the downwards phase never touches upward edges. *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  match res.Strategy.mapping with
  | None -> true
  | Some stats ->
    let st = stats.Mapping.final in
    let ok = ref true in
    let r = Tree.rooting st.Mapping.tree in
    Array.iteri
      (fun v p ->
        if p >= 0 then begin
          let e = r.Tree.parent_edge.(v) in
          if st.Mapping.lmap_up.(e) <> st.Mapping.lacc_up.(e) then ok := false
        end)
      r.Tree.parent;
    !ok

let prop_lemma_4_4 seed =
  (* L_acc(up) + L_acc(down) <= 2 L_nib(e) for every edge, at the end (the
     acceptable loads only ever decrease from 2 L_b). *)
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  match res.Strategy.mapping with
  | None -> true
  | Some stats ->
    let st = stats.Mapping.final in
    let nib = Placement.edge_loads w (Strategy.nibble_placement w res) in
    let ok = ref true in
    Array.iteri
      (fun e l ->
        if st.Mapping.lacc_up.(e) + st.Mapping.lacc_down.(e) > 2 * l then
          ok := false)
      nib;
    !ok

let test_check_invariant_detects_corruption () =
  let _, w = Helpers.instance 4242 in
  let res = Strategy.run w in
  match res.Strategy.mapping with
  | None -> ()  (* nothing mapped; nothing to corrupt *)
  | Some stats ->
    let st = stats.Mapping.final in
    Helpers.check_ok "final state passes" (Mapping.check_invariant st);
    (* Corrupt: pretend a node still holds a heavy copy. *)
    let tree = st.Mapping.tree in
    let bus = List.hd (Tree.buses tree) in
    let heavy =
      Copy.make ~id:999 ~obj:0 ~kappa:1000000 ~node:bus
        [ { Nibble.leaf = List.hd (Tree.leaves tree); reads = 1000000; writes = 0 } ]
    in
    st.Mapping.node_copies.(bus) <- [ heavy ];
    (match Mapping.check_invariant st with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "corruption not detected");
    st.Mapping.node_copies.(bus) <- []

let test_failure_injection () =
  (* Shrinking every acceptable load must eventually break the free-edge
     guarantee or the invariant: shows the checks are not vacuous. *)
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let w = Workload.empty t ~objects:1 in
  List.iter
    (fun leaf ->
      Workload.set_read w ~obj:0 leaf 3;
      Workload.set_write w ~obj:0 leaf 2)
    (Tree.leaves t);
  (* The mapping mutates copy positions, so each run rebuilds Step 2's
     output from scratch. *)
  let fresh () =
    let cs = Nibble.place w ~obj:0 in
    let out = Hbn_core.Deletion.run w cs in
    let movable =
      List.filter
        (fun c -> not (Tree.is_leaf t c.Copy.node))
        out.Hbn_core.Deletion.copies
    in
    if movable = [] then Alcotest.fail "test needs bus copies to move";
    let basic_up, basic_down =
      Mapping.basic_loads t out.Hbn_core.Deletion.copies
    in
    (basic_up, basic_down, movable)
  in
  (* Uncorrupted run succeeds. *)
  let basic_up, basic_down, movable = fresh () in
  (match
     Mapping.run ~on_round:Helpers.check_mapping_round t ~basic_up ~basic_down
       ~movable
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "sound run stopped with an error");
  (* Heavy corruption: basic loads lowered by 500_000 start every
     acceptable load at 2 L_b - 1_000_000. *)
  let basic_up, basic_down, movable = fresh () in
  let lowered b = Array.map (fun l -> l - 500_000) b in
  let failed =
    match
      Mapping.run t ~basic_up:(lowered basic_up)
        ~basic_down:(lowered basic_down) ~movable
    with
    | Error (Mapping.No_free_edge _ | Mapping.Copy_on_bus _) -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "corrupted bookkeeping fails" true failed

let test_papers_printed_invariant_is_too_strong () =
  (* DESIGN.md erratum: find an instance where the paper's literal
     "+ 2 Σ s(c)" form is violated at some point of the mapping while the
     corrected "+ Σ (s + κ)" form (checked every round) always holds. *)
  let printed_form_violated = ref false in
  let check_printed (st : Mapping.state) =
    let r = Tree.rooting st.Mapping.tree in
    List.iter
      (fun v ->
        let out = ref 0 and inc = ref 0 in
        if v <> r.Tree.root then begin
          let e = r.Tree.parent_edge.(v) in
          out := !out + st.Mapping.lacc_up.(e) - st.Mapping.lmap_up.(e);
          inc := !inc + st.Mapping.lacc_down.(e) - st.Mapping.lmap_down.(e)
        end;
        Array.iter
          (fun c ->
            let e = r.Tree.parent_edge.(c) in
            out := !out + st.Mapping.lacc_down.(e) - st.Mapping.lmap_down.(e);
            inc := !inc + st.Mapping.lacc_up.(e) - st.Mapping.lmap_up.(e))
          r.Tree.children.(v);
        let served =
          List.fold_left (fun a c -> a + c.Copy.served) 0
            st.Mapping.node_copies.(v)
        in
        if !out < !inc + (2 * served) then printed_form_violated := true)
      (Tree.buses st.Mapping.tree)
  in
  let seed = ref 0 in
  while (not !printed_form_violated) && !seed < 200 do
    let _, w = Helpers.instance !seed in
    ignore
      (Strategy.run
         ~on_mapping_round:(fun st ->
           Helpers.check_mapping_round st;
           check_printed st)
         w);
    incr seed
  done;
  Alcotest.(check bool)
    "printed invariant violated on some instance while corrected form held"
    true !printed_form_violated

let test_empty_movable_is_noop () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let stats =
    match
      Mapping.run t ~basic_up:[| 0; 0 |] ~basic_down:[| 0; 0 |] ~movable:[]
    with
    | Ok stats -> stats
    | Error _ -> Alcotest.fail "empty movable set stopped with an error"
  in
  Alcotest.(check int) "no moves" 0
    (stats.Mapping.moves_up + stats.Mapping.moves_down);
  Alcotest.(check int) "tau 0" 0 stats.Mapping.tau_max

(* Step 2's copies (bus copies among them) on random trees, stars,
   caterpillars up to spine 60 and caterpillars with spines of 100 to
   600, against the edge-by-edge climb. *)
let prop_basic_loads_match_edge_walk seed =
  let tree, w =
    if seed mod 3 <> 0 then Helpers.shaped_instance seed
    else begin
      let prng = Prng.create (seed + 17) in
      let tree =
        Builders.caterpillar ~spine:(Prng.int_in prng 100 600)
          ~leaves_per_bus:(Prng.int_in prng 1 3)
          ~profile:(Builders.Uniform 2)
      in
      (tree, Helpers.random_workload prng tree)
    end
  in
  let copies =
    List.concat_map
      (fun obj ->
        if Workload.write_contention w ~obj = 0 then []
        else (Hbn_core.Deletion.run w (Nibble.place w ~obj)).Hbn_core.Deletion.copies)
      (List.init (Workload.num_objects w) Fun.id)
  in
  Mapping.basic_loads tree copies = Hbn_ref.Mapping_ref.basic_loads tree copies

let suite =
  [
    Helpers.tc "basic load directions" test_basic_loads_directions;
    Helpers.qt "basic_loads = edge-walk oracle" Helpers.seed_arb
      prop_basic_loads_match_edge_walk;
    Helpers.tc "self-serving copies add no load" test_self_serving_copy_no_load;
    Helpers.tc "check_invariant detects corruption" test_check_invariant_detects_corruption;
    Helpers.tc "failure injection breaks the run" test_failure_injection;
    Helpers.slow "paper's printed Invariant 4.2 is too strong (erratum)"
      test_papers_printed_invariant_is_too_strong;
    Helpers.tc "empty movable set is a no-op" test_empty_movable_is_noop;
    Helpers.qt "Invariant 4.2 holds throughout" Helpers.seed_arb prop_invariant_throughout;
    Helpers.qt "hook and trace see the same rounds in order" Helpers.seed_arb
      prop_round_channels_in_lockstep;
    Helpers.qt "all movable copies end on processors" Helpers.seed_arb prop_movable_end_on_leaves;
    Helpers.qt "Observation 3.3" Helpers.seed_arb prop_observation_3_3;
    Helpers.qt "upward L_map = L_acc after adjustment" Helpers.seed_arb prop_upward_lmap_matches_lacc;
    Helpers.qt "Lemma 4.4 acceptable-load bound" Helpers.seed_arb prop_lemma_4_4;
  ]
