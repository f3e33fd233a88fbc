(* The per-level link model, the one module of the event library: spec
   parsing, validation, per-edge levels and latencies, and the
   serialized transmit clock the asynchronous runs draw arrival times
   from (DESIGN.md §14). *)

module Link = Hbn_event.Link
module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders

(* --- link model --------------------------------------------------------- *)

let test_link_spec_round_trip () =
  List.iter
    (fun spec ->
      match Link.of_spec spec with
      | Error e -> Alcotest.failf "of_spec %S: %s" spec e
      | Ok c -> Alcotest.(check string) spec spec (Link.to_spec c))
    [ "1:inf"; "1:8"; "1:1,1:8"; "0.5:2,2:16,1:inf"; "4:8" ]

let test_link_spec_errors_carry_position () =
  let check spec sub =
    match Link.of_spec spec with
    | Ok _ -> Alcotest.failf "of_spec %S unexpectedly parsed" spec
    | Error e ->
      if not (Helpers.contains e sub) then
        Alcotest.failf "error %S does not mention %S" e sub
  in
  check "bogus" "clause 1 at char 0";
  check "1:8,nope" "clause 2 at char 4";
  check "1:8,,2:4" "clause 2 at char 4";
  check "1:8,2:zero" "clause 2 at char 4";
  check "1:8,-1:4" "clause 2 at char 4";
  check "1:8,2:-4" "clause 2 at char 4";
  check "0:inf" "clause 1 at char 0";
  check "1:inf,1:8,nan:2" "clause 3 at char 10";
  check "" "empty"

(* of_spec ∘ to_spec = id over arbitrary valid configs. Delays come from
   a quarter-unit grid and bandwidths from small powers of two (plus
   inf), all exact in binary, so the %g rendering is lossless and the
   identity can be checked exactly — per-level numbers, not just the
   spec string. *)
let link_config_arb =
  let clause =
    QCheck.Gen.(
      pair (map (fun k -> float_of_int k /. 4.) (int_range 0 16))
        (oneof
           [
             map (fun k -> float_of_int (1 lsl k)) (int_bound 6);
             return Float.infinity;
           ]))
  in
  (* Zero delay with infinite bandwidth is the one rejected combination. *)
  let repair (d, b) = if d = 0. && b = Float.infinity then (1., b) else (d, b) in
  QCheck.make
    ~print:(fun l ->
      String.concat ","
        (List.map (fun (d, b) -> Printf.sprintf "%g:%g" d b) l))
    QCheck.Gen.(map (List.map repair) (list_size (int_range 1 5) clause))

let prop_link_spec_round_trip clauses =
  let c = Link.v (Array.of_list clauses) in
  let s = Link.to_spec c in
  match Link.of_spec s with
  | Error e -> QCheck.Test.fail_reportf "of_spec %S: %s" s e
  | Ok c' ->
    Link.to_spec c' = s
    && Link.num_levels c' = Link.num_levels c
    && List.for_all
         (fun level ->
           Link.delay c' ~level = Link.delay c ~level
           && Link.bandwidth c' ~level = Link.bandwidth c ~level)
         (List.init (List.length clauses) (fun i -> i + 1))

let test_link_validation () =
  let raises a =
    try
      ignore (Link.v a);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty" true (raises [||]);
  Alcotest.(check bool) "negative delay" true (raises [| (-1., 2.) |]);
  Alcotest.(check bool) "zero bandwidth" true (raises [| (1., 0.) |]);
  Alcotest.(check bool) "zero transit" true (raises [| (0., infinity) |]);
  Alcotest.(check bool) "sync is sync" true (Link.is_sync Link.sync);
  Alcotest.(check bool)
    "finite bandwidth is not sync" true
    (not (Link.is_sync (Link.v [| (1., 8.) |])))

let test_link_levels_and_latency () =
  let tree = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let c = Link.v [| (1., 8.); (2., 4.) |] in
  let l = Link.attach c tree in
  let r = Tree.rooting tree in
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    let depth = max r.Tree.depth.(u) r.Tree.depth.(v) in
    Alcotest.(check int)
      (Printf.sprintf "edge %d level" e)
      depth (Link.edge_level l e);
    let want_d = if depth = 1 then 1. else 2. in
    let want_b = if depth = 1 then 8. else 4. in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "edge %d latency" e)
      ((4. /. want_b) +. want_d)
      (Link.latency l ~edge:e ~bytes:4)
  done;
  (* Deeper levels than the config lists reuse the last clause. *)
  Alcotest.(check (float 0.)) "extension" 4. (Link.delay c ~level:9 *. 2.)

let test_link_transmit_serializes () =
  let tree = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let l = Link.attach (Link.v [| (1., 4.) |]) tree in
  let u, _ = Tree.edge_endpoints tree 0 in
  (* Two 4-byte messages back to back on one directed link: the second
     waits for the first to clear the transmitter (1 time unit at B=4),
     then adds its own transmission and the shared propagation delay. *)
  let a1 = Link.transmit l ~now:0. ~edge:0 ~src:u ~bytes:4 in
  let a2 = Link.transmit l ~now:0. ~edge:0 ~src:u ~bytes:4 in
  Alcotest.(check (float 1e-9)) "first arrival" 2. a1;
  Alcotest.(check (float 1e-9)) "second queues" 3. a2;
  (* The reverse direction has its own clock. *)
  let other = if u = 0 then 1 else 0 in
  Alcotest.(check (float 1e-9)) "reverse direction free" 2.
    (Link.transmit l ~now:0. ~edge:0 ~src:other ~bytes:4);
  Alcotest.(check bool) "foreign src raises" true
    (try
       ignore (Link.transmit l ~now:0. ~edge:0 ~src:2 ~bytes:1);
       false
     with Invalid_argument _ -> true)

let test_link_sync_never_blocks () =
  let tree = Builders.star ~leaves:3 ~profile:(Builders.Uniform 1) in
  let l = Link.attach Link.sync tree in
  for _ = 1 to 5 do
    Alcotest.(check (float 0.)) "now + 1" 3.
      (Link.transmit l ~now:2. ~edge:0 ~src:0 ~bytes:1_000_000)
  done

let suite =
  [
    Helpers.tc "link: spec round-trip" test_link_spec_round_trip;
    Helpers.qt ~count:200 "link: of_spec after to_spec is the identity"
      link_config_arb prop_link_spec_round_trip;
    Helpers.tc "link: spec errors carry positions"
      test_link_spec_errors_carry_position;
    Helpers.tc "link: config validation" test_link_validation;
    Helpers.tc "link: levels and latency" test_link_levels_and_latency;
    Helpers.tc "link: transmit serializes per direction"
      test_link_transmit_serializes;
    Helpers.tc "link: sync never blocks" test_link_sync_never_blocks;
  ]
