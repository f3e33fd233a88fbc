module Tree = Hbn_tree.Tree
module Topology_io = Hbn_tree.Topology_io
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Workload_io = Hbn_workload.Workload_io
module Prng = Hbn_prng.Prng

let trees_equal a b =
  Tree.n a = Tree.n b
  && Tree.num_edges a = Tree.num_edges b
  && List.init (Tree.n a) (fun v -> Tree.kind a v)
     = List.init (Tree.n b) (fun v -> Tree.kind b v)
  && List.init (Tree.num_edges a) (fun e ->
         (Tree.edge_endpoints a e, Tree.edge_bandwidth a e))
     = List.init (Tree.num_edges b) (fun e ->
           (Tree.edge_endpoints b e, Tree.edge_bandwidth b e))
  && List.for_all
       (fun v -> Tree.bus_bandwidth a v = Tree.bus_bandwidth b v)
       (Tree.buses a)
  && (Tree.rooting a).Tree.root = (Tree.rooting b).Tree.root

let test_topology_round_trip_example () =
  let t = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Scaled_by_subtree 2) in
  match Topology_io.of_string (Topology_io.to_string t) with
  | Ok t' -> Alcotest.(check bool) "round trip" true (trees_equal t t')
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_topology_parse_handwritten () =
  let s =
    "# tiny network\n\
     nodes 3\n\
     bus 0 7\n\
     proc 1\n\
     proc 2\n\
     edge 0 1 1\n\
     edge 0 2 1\n"
  in
  match Topology_io.of_string s with
  | Ok t ->
    Alcotest.(check int) "n" 3 (Tree.n t);
    Alcotest.(check int) "bus bw" 7 (Tree.bus_bandwidth t 0);
    Alcotest.(check (list int)) "leaves" [ 1; 2 ] (Tree.leaves t)
  | Error m -> Alcotest.failf "parse failed: %s" m

let expect_error what s =
  match Topology_io.of_string s with
  | Ok _ -> Alcotest.failf "%s: expected parse error" what
  | Error _ -> ()

let test_topology_parse_errors () =
  expect_error "missing nodes" "bus 0 1\n";
  expect_error "garbage" "nodes 2\nfrobnicate 1\n";
  expect_error "bad int" "nodes x\n";
  expect_error "undeclared node" "nodes 3\nbus 0 1\nproc 1\nedge 0 1 1\nedge 0 2 1\n";
  expect_error "duplicate node" "nodes 2\nproc 0\nproc 0\nproc 1\nedge 0 1 1\n";
  expect_error "out of range id" "nodes 2\nproc 0\nproc 5\nedge 0 1 1\n";
  (* structural errors surface from Tree.make *)
  expect_error "bus as leaf" "nodes 2\nbus 0 1\nproc 1\nedge 0 1 1\n";
  expect_error "not a tree" "nodes 3\nbus 0 1\nproc 1\nproc 2\nedge 0 1 1\n"

let test_workload_round_trip_example () =
  let t = Builders.star ~leaves:4 ~profile:(Builders.Uniform 2) in
  let w = Workload.empty t ~objects:3 in
  Workload.set_read w ~obj:0 1 5;
  Workload.set_write w ~obj:2 3 7;
  match Workload_io.of_string t (Workload_io.to_string w) with
  | Ok w' ->
    Alcotest.(check int) "objects" 3 (Workload.num_objects w');
    Alcotest.(check int) "read" 5 (Workload.reads w' ~obj:0 1);
    Alcotest.(check int) "write" 7 (Workload.writes w' ~obj:2 3);
    Alcotest.(check int) "totals" (Workload.total_requests w)
      (Workload.total_requests w')
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_workload_parse_errors () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  let err s =
    match Workload_io.of_string t s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error _ -> ()
  in
  err "rate 0 1 1 1\n";
  err "objects 1\nrate 5 1 1 1\n";
  err "objects 1\nrate 0 99 1 1\n";
  err "objects 1\nrate 0 0 1 1\n";
  (* node 0 is the bus *)
  err "objects 1\nrate 0 1 -2 0\n"

(* Duplicate (object, node) rate lines used to accumulate silently —
   concatenating two workload files doubled every shared rate. They are
   now rejected, and the error names both lines. *)
let test_workload_duplicate_rate_lines () =
  let t = Builders.star ~leaves:2 ~profile:(Builders.Uniform 1) in
  (match Workload_io.of_string t "objects 1\nrate 0 1 2 0\nrate 0 1 3 1\n" with
  | Ok _ -> Alcotest.fail "duplicate rate lines must be rejected"
  | Error m ->
    List.iter
      (fun needle ->
        if not (Helpers.contains m needle) then
          Alcotest.failf "error %S does not mention %S" m needle)
      [ "line 3"; "line 2"; "duplicate rate" ]);
  (* Distinct objects or nodes on separate lines stay legal. *)
  match
    Workload_io.of_string t "objects 2\nrate 0 1 2 0\nrate 1 1 3 0\nrate 0 2 1 1\n"
  with
  | Ok w ->
    Alcotest.(check int) "obj 0 node 1" 2 (Workload.reads w ~obj:0 1);
    Alcotest.(check int) "obj 1 node 1" 3 (Workload.reads w ~obj:1 1);
    Alcotest.(check int) "obj 0 node 2 write" 1 (Workload.writes w ~obj:0 2)
  | Error m -> Alcotest.failf "distinct rate lines rejected: %s" m

let test_file_round_trip () =
  let dir = Filename.temp_file "hbn" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let t = Builders.caterpillar ~spine:3 ~leaves_per_bus:2 ~profile:(Builders.Uniform 3) in
  let tp = Filename.concat dir "net.hbn" in
  Helpers.check_ok "save topology" (Topology_io.save t ~path:tp);
  (match Topology_io.load ~path:tp with
  | Ok t' -> Alcotest.(check bool) "tree file round trip" true (trees_equal t t')
  | Error m -> Alcotest.failf "load failed: %s" m);
  let prng = Prng.create 4 in
  let w = Hbn_workload.Generators.uniform ~prng t ~objects:4 ~max_rate:7 in
  let wp = Filename.concat dir "load.hbn" in
  Helpers.check_ok "save workload" (Workload_io.save w ~path:wp);
  (match Workload_io.load t ~path:wp with
  | Ok w' ->
    Alcotest.(check int) "workload file round trip"
      (Workload.total_requests w) (Workload.total_requests w')
  | Error m -> Alcotest.failf "load failed: %s" m);
  Sys.remove tp;
  Sys.remove wp;
  Unix.rmdir dir

let test_load_missing_file () =
  match Topology_io.load ~path:"/nonexistent/net.hbn" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let prop_topology_round_trip seed =
  let prng = Prng.create seed in
  let t = Helpers.random_tree prng in
  match Topology_io.of_string (Topology_io.to_string t) with
  | Ok t' -> trees_equal t t'
  | Error _ -> false

let prop_workload_round_trip seed =
  let _, w = Helpers.instance seed in
  let t = Workload.tree w in
  match Workload_io.of_string t (Workload_io.to_string w) with
  | Ok w' ->
    List.for_all
      (fun v ->
        List.for_all
          (fun obj ->
            Workload.reads w ~obj v = Workload.reads w' ~obj v
            && Workload.writes w ~obj v = Workload.writes w' ~obj v)
          (List.init (Workload.num_objects w) Fun.id))
      (Tree.leaves t)
  | Error _ -> false

(* -- the parser fuzz corpus ----------------------------------------------- *)

(* Every text entry point, seeded with a valid rendering of its format
   and fed mutations of it, must return [Ok] or [Error]: none may raise.
   The file loaders read their input through a temp file. *)

let fuzz_targets =
  lazy
    (let tree =
       Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 2)
     in
     let w =
       Hbn_workload.Generators.uniform ~prng:(Prng.create 1) tree ~objects:2
         ~max_rate:3
     in
     let through_file load text =
       let path = Filename.temp_file "hbn_fuzz" ".txt" in
       Fun.protect
         ~finally:(fun () -> Sys.remove path)
         (fun () ->
           Out_channel.with_open_bin path (fun oc -> output_string oc text);
           load path)
     in
     let tables =
       let path = Filename.temp_file "hbn_fuzz" ".txt" in
       Fun.protect
         ~finally:(fun () -> Sys.remove path)
         (fun () ->
           Helpers.check_ok "save_tables"
             (Hbn_serve.Serve.save_tables path [| w; w |]);
           In_channel.with_open_bin path In_channel.input_all)
     in
     let trace =
       {|{"ev":"span_start","name":"strategy.run","id":1,"parent":0,"attrs":{"domain":0}}
{"ev":"span_end","name":"strategy.run","id":1,"parent":0,"dur_ns":5000000,"attrs":{"domain":0}}
{"ev":"gauge","name":"sim.queue_depth","id":0,"parent":5,"value":7.0,"attrs":{}}
{"ev":"counter","name":"sim.packets","id":0,"parent":0,"value":42,"attrs":{}}
{"ev":"series","name":"sim.edge","id":0,"parent":0,"round":1,"span":1,"value":3,"edge":0,"attrs":{}}
{"ev":"fault","name":"runtime.fault","id":0,"parent":0,"round":3,"fault":"crashed","node":2,"edge":-1,"attrs":{}}
|}
     in
     (* Any [Ok] or [Error] passes; a raise fails the property. *)
     let ok (_ : (_, string) result) = true in
     [|
       ("topology", Topology_io.to_string tree,
         fun s -> ok (Topology_io.of_string s));
       ("workload", Workload_io.to_string w,
         fun s -> ok (Workload_io.of_string tree s));
       ("tables", tables,
         through_file (fun path -> ok (Hbn_serve.Serve.load_tables ~tree path)));
       ("trace", trace,
         through_file (fun path -> ok (Hbn_obs.Report.load ~path)));
       ("faults", "drop=0.2,until=40,crash=3:5-15,cut=2:10-inf",
         fun s -> ok (Hbn_dist.Faults.of_spec ~seed:3 s));
       ("link", "0.5:2,2:16,1:inf", fun s -> ok (Hbn_event.Link.of_spec s));
     |])

(* Replacements for a whole number: sizes no array holds, ints beyond
   [int_of_string], and float words. A mid-size count would only probe
   the host's memory, so none is generated, and no edit follows a
   replacement that could shrink one. *)
let odd_numbers =
  [ string_of_int Sys.max_array_length; string_of_int max_int;
    string_of_int min_int; "99999999999999999999"; "nan"; "inf"; "-inf";
    "infinity" ]

let digit_runs s =
  let digit i = i < String.length s && s.[i] >= '0' && s.[i] <= '9' in
  let rec go acc i =
    if i >= String.length s then List.rev acc
    else if digit i then begin
      let j = ref i in
      while digit !j do incr j done;
      go ((i, !j - i) :: acc) !j
    end
    else go acc (i + 1)
  in
  go [] 0

let mutate seed =
  let open QCheck.Gen in
  let flip s =
    if s = "" then return s
    else
      let+ i = int_bound (String.length s - 1) and+ b = int_bound 7 in
      String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
        s
  in
  let truncate s =
    let+ k = int_bound (String.length s) in
    String.sub s 0 k
  in
  let replace_number s =
    match digit_runs s with
    | [] -> return s
    | runs ->
      let+ i, len = oneofl runs and+ tok = oneofl odd_numbers in
      String.sub s 0 i ^ tok ^ String.sub s (i + len) (String.length s - i - len)
  in
  let rec edits n s =
    if n = 0 then return s
    else
      let* s = oneof [ flip s; flip s; truncate s ] in
      edits (n - 1) s
  in
  frequency
    [ (1, return "");
      (19,
        let* n = int_bound 3 in
        let* s = edits n seed in
        let* last = bool in
        if last then replace_number s else return s) ]

let fuzz_arb =
  let gen =
    QCheck.Gen.(
      let* i = int_bound (Array.length (Lazy.force fuzz_targets) - 1) in
      let name, seed, _ = (Lazy.force fuzz_targets).(i) in
      map (fun s -> (i, name, s)) (mutate seed))
  in
  QCheck.make ~print:(fun (_, name, s) -> Printf.sprintf "%s: %S" name s) gen

let prop_parsers_never_raise (i, _, s) =
  let _, _, parse = (Lazy.force fuzz_targets).(i) in
  parse s

let suite =
  [
    Helpers.tc "topology round trip" test_topology_round_trip_example;
    Helpers.tc "topology handwritten parse" test_topology_parse_handwritten;
    Helpers.tc "topology parse errors" test_topology_parse_errors;
    Helpers.tc "workload round trip" test_workload_round_trip_example;
    Helpers.tc "workload parse errors" test_workload_parse_errors;
    Helpers.tc "workload duplicate rate lines" test_workload_duplicate_rate_lines;
    Helpers.tc "file round trips" test_file_round_trip;
    Helpers.tc "missing file" test_load_missing_file;
    Helpers.qt "random topologies round trip" Helpers.seed_arb
      prop_topology_round_trip;
    Helpers.qt "random workloads round trip" Helpers.seed_arb
      prop_workload_round_trip;
    Helpers.qt ~count:3000 "parsers never raise on mutated input" fuzz_arb
      prop_parsers_never_raise;
  ]
