module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Placement_ref = Hbn_ref.Placement_ref
module Strategy = Hbn_core.Strategy
module Capacitated = Hbn_core.Capacitated
module Prng = Hbn_prng.Prng

let apply w ~capacity p =
  match Capacitated.apply w ~capacity p with
  | Ok out -> out
  | Error msg -> Alcotest.failf "unexpected Error: %s" msg

let star_many_objects () =
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 2) in
  let w = Workload.empty t ~objects:6 in
  (* All objects live on processor 1 (it does all the writing). *)
  for obj = 0 to 5 do
    Workload.set_write w ~obj 1 10;
    Workload.set_read w ~obj 2 1
  done;
  (t, w)

let test_unconstrained_noop () =
  let t, w = star_many_objects () in
  let res = Strategy.run w in
  let out = apply w ~capacity:(fun _ -> 100) res.Strategy.placement in
  Alcotest.(check int) "no moves" 0
    (out.Capacitated.relocations + out.Capacitated.merges);
  Alcotest.(check bool) "same loads" true
    (Placement.edge_loads w out.Capacitated.placement
    = Placement.edge_loads w res.Strategy.placement);
  Alcotest.(check bool) "respects" true
    (Capacitated.respects t ~capacity:(fun _ -> 100) out.Capacitated.placement)

let test_eviction_respects_capacity () =
  let t, w = star_many_objects () in
  let res = Strategy.run w in
  (* Everything piles onto processor 1; capacity 2 forces 4 objects out. *)
  let cap _ = 2 in
  let out = apply w ~capacity:cap res.Strategy.placement in
  Alcotest.(check bool) "respects capacity" true
    (Capacitated.respects t ~capacity:cap out.Capacitated.placement);
  Helpers.check_ok "still covers workload"
    (Placement.validate w out.Capacitated.placement);
  Alcotest.(check bool) "moved something" true
    (out.Capacitated.relocations + out.Capacitated.merges > 0);
  Alcotest.(check bool) "leaf only" true
    (Placement.leaf_only t out.Capacitated.placement)

let test_eviction_prefers_light_copies () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 2) in
  let w = Workload.empty t ~objects:2 in
  (* Object 0 heavy on processor 1, object 1 light on processor 1. *)
  Workload.set_write w ~obj:0 1 50;
  Workload.set_write w ~obj:1 1 2;
  Workload.set_read w ~obj:1 2 1;
  let res = Strategy.run w in
  ignore t;
  let cap v = if v = 1 then 1 else 5 in
  let out = apply w ~capacity:cap res.Strategy.placement in
  (* The heavy object stays home; the light one moves. *)
  Alcotest.(check bool) "heavy object kept" true
    (List.mem 1 (Placement.copies out.Capacitated.placement ~obj:0));
  Alcotest.(check bool) "light object evicted" true
    (not (List.mem 1 (Placement.copies out.Capacitated.placement ~obj:1)))

let test_merge_preferred_over_move () =
  let t = Builders.star ~leaves:3 ~profile:(Builders.Uniform 2) in
  ignore t;
  let w = Workload.empty t ~objects:2 in
  (* Object 0 replicated on processors 1 and 2 (reads both sides, writes
     enough to matter); object 1 pins processor 1's slot. *)
  Workload.set_read w ~obj:0 1 9;
  Workload.set_read w ~obj:0 2 9;
  Workload.set_write w ~obj:0 1 2;
  Workload.set_write w ~obj:1 1 30;
  let res = Strategy.run w in
  if
    List.mem 1 (Placement.copies res.Strategy.placement ~obj:0)
    && List.mem 2 (Placement.copies res.Strategy.placement ~obj:0)
  then begin
    let cap v = if v = 1 then 1 else 5 in
    let out = apply w ~capacity:cap res.Strategy.placement in
    (* Object 0's copy on 1 merges into its existing copy on 2. *)
    Alcotest.(check int) "merged" 1 out.Capacitated.merges;
    Alcotest.(check (list int)) "single copy left" [ 2 ]
      (Placement.copies out.Capacitated.placement ~obj:0)
  end

let test_infeasible () =
  let t, w = star_many_objects () in
  ignore t;
  let res = Strategy.run w in
  (* 6 objects, total capacity 4. *)
  (match Capacitated.apply w ~capacity:(fun _ -> 1) res.Strategy.placement with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an infeasible Error");
  (* A negative capacity is an Error too, not an exception. *)
  match Capacitated.apply w ~capacity:(fun _ -> -1) res.Strategy.placement with
  | Error msg ->
    Alcotest.(check string) "names the processor"
      "negative capacity -1 at processor 1" msg
  | Ok _ -> Alcotest.fail "expected a negative-capacity Error"

let test_bus_placement_rejected () =
  let t, w = star_many_objects () in
  let bad =
    Placement_ref.of_lists [|
      {
        Placement_ref.copies = [ 0 ];
        assigns =
          [
            { Placement_ref.leaf = 1; server = 0; reads = 0; writes = 10 };
            { Placement_ref.leaf = 2; server = 0; reads = 1; writes = 0 };
          ];
      };
    |]
  in
  ignore t;
  (try
     ignore (Capacitated.apply w ~capacity:(fun _ -> 1) bad);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_capacity_respected_and_valid seed =
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  let prng = Prng.create (seed + 3) in
  let cap_base = Prng.int_in prng 1 3 in
  let cap _ = cap_base in
  (* Feasibility: enough slots overall and per object a free leaf. *)
  let active =
    List.length
      (List.filter
         (fun obj -> Workload.requesting_leaves w ~obj <> [])
         (List.init (Workload.num_objects w) Fun.id))
  in
  if active > cap_base * Tree.num_leaves t then true
  else
    let res = Strategy.run w in
    match Capacitated.apply w ~capacity:cap res.Strategy.placement with
    | Ok out ->
      Capacitated.respects t ~capacity:cap out.Capacitated.placement
      && Placement.validate w out.Capacitated.placement = Ok ()
      && Placement.leaf_only t out.Capacitated.placement
    | Error _ ->
      (* Greedy packing may fail even when feasible in principle; accept
         only when tight. *)
      active > (cap_base * Tree.num_leaves t) / 2

let prop_unconstrained_is_identity seed =
  let _, w = Helpers.instance seed in
  let res = Strategy.run w in
  let out = apply w ~capacity:(fun _ -> max_int) res.Strategy.placement in
  out.Capacitated.relocations = 0 && out.Capacitated.merges = 0

let suite =
  [
    Helpers.tc "unconstrained capacities are a no-op" test_unconstrained_noop;
    Helpers.tc "eviction respects capacity" test_eviction_respects_capacity;
    Helpers.tc "light copies evicted first" test_eviction_prefers_light_copies;
    Helpers.tc "merge preferred when a copy exists nearby" test_merge_preferred_over_move;
    Helpers.tc "infeasible capacities detected" test_infeasible;
    Helpers.tc "bus placements rejected" test_bus_placement_rejected;
    Helpers.qt ~count:60 "capacity respected and placement valid"
      Helpers.seed_arb prop_capacity_respected_and_valid;
    Helpers.qt "unconstrained pass is identity" Helpers.seed_arb
      prop_unconstrained_is_identity;
  ]
