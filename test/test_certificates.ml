module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Certificates = Hbn_core.Certificates
module Copy = Hbn_core.Copy
module Mapping = Hbn_core.Mapping

(* The checkers must be falsifiable: corrupt a known-good result in each
   dimension and watch the corresponding certificate fail. *)

let instance () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 2) in
  let w = Workload.empty t ~objects:2 in
  List.iteri
    (fun i leaf ->
      Workload.set_read w ~obj:0 leaf (3 + i);
      Workload.set_write w ~obj:0 leaf 2;
      Workload.set_write w ~obj:1 leaf 1)
    (Tree.leaves t);
  (t, w)

let expect_error what = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: corruption not detected" what

let test_all_pass_on_sound_result () =
  let _, w = instance () in
  let res = Strategy.run w in
  Helpers.check_ok "check_all" (Certificates.check_all w res);
  Helpers.check_ok "valid" (Certificates.check_valid w res);
  Helpers.check_ok "obs 3.2" (Certificates.check_observation_3_2 w res);
  Helpers.check_ok "lemma 4.5" (Certificates.check_lemma_4_5 w res);
  Helpers.check_ok "lemma 4.6" (Certificates.check_lemma_4_6 w res)

let test_check_valid_detects_bus_copy () =
  let _, w = instance () in
  let res = Strategy.run w in
  let corrupted =
    {
      res with
      Strategy.placement =
        Array.map
          (fun op ->
            {
              op with
              Placement.copies = Array.append [| 0 |] op.Placement.copies;
              (* node 0 is the root bus *)
            })
          res.Strategy.placement;
    }
  in
  expect_error "bus copy" (Certificates.check_valid w corrupted)

let test_check_valid_detects_coverage_gap () =
  let _, w = instance () in
  let res = Strategy.run w in
  let corrupted =
    {
      res with
      Strategy.placement =
        Array.map
          (fun op -> { Placement.empty with copies = op.Placement.copies })
          res.Strategy.placement;
    }
  in
  expect_error "coverage" (Certificates.check_valid w corrupted)

let test_obs32_detects_starved_copy () =
  let _, w = instance () in
  let res = Strategy.run w in
  let starving =
    Copy.make ~id:4242 ~obj:0 ~kappa:10 ~node:1 []
    (* serves 0 < kappa *)
  in
  let corrupted = { res with Strategy.copies = starving :: res.Strategy.copies } in
  expect_error "starved copy" (Certificates.check_observation_3_2 w corrupted)

let test_obs32_detects_overloaded_copy () =
  let _, w = instance () in
  let res = Strategy.run w in
  let fat =
    Copy.make ~id:4243 ~obj:0 ~kappa:1 ~node:1
      [ { Hbn_nibble.Nibble.leaf = 1; reads = 100; writes = 0 } ]
  in
  let corrupted = { res with Strategy.copies = fat :: res.Strategy.copies } in
  expect_error "overloaded copy" (Certificates.check_observation_3_2 w corrupted)

let test_lemma45_detects_overload () =
  let _, w = instance () in
  let res = Strategy.run w in
  (* Pretend tau_max is tiny: the measured loads then exceed the bound
     somewhere unless the placement is exactly nibble-shaped. *)
  let corrupted = { res with Strategy.tau_max = -1000 } in
  (* With a hugely negative tau the bound 4*Lnib + tau is below the real
     loads on at least the edges the mapping loaded. *)
  match Certificates.check_lemma_4_5 w corrupted with
  | Error _ -> ()
  | Ok () ->
    (* Degenerate case: the final loads may coincide with nibble loads;
       accept only if they really do. *)
    let final = Placement.edge_loads w res.Strategy.placement in
    let nib = Placement.edge_loads w (Strategy.nibble_placement w res) in
    Alcotest.(check bool) "loads within 4x nibble everywhere" true
      (Array.for_all2 (fun l n -> l <= (4 * n) - 1000) final nib)

let test_theorem43_threshold () =
  let _, w = instance () in
  let res = Strategy.run w in
  let c = Placement.congestion w res.Strategy.placement in
  Helpers.check_ok "generous optimum"
    (Certificates.check_theorem_4_3 w res ~optimum:c);
  expect_error "impossible optimum"
    (Certificates.check_theorem_4_3 w res ~optimum:(c /. 8.))

let test_max_edge_slack_bounded () =
  let _, w = instance () in
  let res = Strategy.run w in
  let s = Certificates.max_edge_slack w res in
  Alcotest.(check bool) "slack in (0, 1]" true (s > 0. && s <= 1.)

(* Mapping effort bound: every copy moves at most height times up and
   height times down (Theorem 4.3's counting argument). *)
let prop_moves_bounded seed =
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let res = Strategy.run w in
  match res.Strategy.mapping with
  | None -> true
  | Some stats ->
    let movable = List.length res.Strategy.copies in
    let h = max 1 (Tree.height t) in
    stats.Mapping.moves_up <= movable * h
    && stats.Mapping.moves_down <= movable * h

let prop_copies_bounded seed =
  (* Every Step 2 copy serves at least kappa requests, so an object has at
     most h_x / kappa_x copies (the counting argument in the proof of
     Theorem 4.3's runtime bound). *)
  let _, w = Helpers.instance seed in
  let per_object = Hashtbl.create 8 in
  let res = Strategy.run w in
  List.iter
    (fun c ->
      let k = try Hashtbl.find per_object c.Copy.obj with Not_found -> 0 in
      Hashtbl.replace per_object c.Copy.obj (k + 1))
    res.Strategy.copies;
  Hashtbl.fold
    (fun obj k acc ->
      let kappa = Workload.write_contention w ~obj in
      let h = Workload.total_weight w ~obj in
      acc && (kappa = 0 || k <= h / kappa))
    per_object true

let suite =
  [
    Helpers.tc "all certificates pass on sound results" test_all_pass_on_sound_result;
    Helpers.tc "check_valid detects bus copies" test_check_valid_detects_bus_copy;
    Helpers.tc "check_valid detects coverage gaps" test_check_valid_detects_coverage_gap;
    Helpers.tc "obs 3.2 detects starved copies" test_obs32_detects_starved_copy;
    Helpers.tc "obs 3.2 detects overloaded copies" test_obs32_detects_overloaded_copy;
    Helpers.tc "lemma 4.5 bound is sharp enough to fail" test_lemma45_detects_overload;
    Helpers.tc "theorem 4.3 threshold" test_theorem43_threshold;
    Helpers.tc "max_edge_slack bounded" test_max_edge_slack_bounded;
    Helpers.qt "copy movements bounded by height" Helpers.seed_arb prop_moves_bounded;
    Helpers.qt "copies per object bounded by h/kappa" Helpers.seed_arb
      prop_copies_bounded;
  ]
