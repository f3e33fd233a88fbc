(* The benchmark's four workloads, one per user-facing path (hbn_cli
   place on a wide and on a deep network, simulate, serve). Each is
   driven through the libraries' public functions only.

   A workload's set-up builds its inputs from a PRNG; a pass is the
   timed product work; the checks after a pass are untimed. Probes run
   only in the traced run: they replay single layers from outside on the
   pass's inputs so each layer gets its own span. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Sim = Hbn_sim.Sim
module Link = Hbn_event.Link
module Dist = Hbn_dist.Dist
module Dist_nibble = Hbn_dist.Dist_nibble
module Faults = Hbn_dist.Faults
module Runtime = Hbn_dist.Runtime
module Loads = Hbn_loads.Loads
module Attribution = Hbn_obs.Attribution
module Drift = Hbn_serve.Drift
module Serve = Hbn_serve.Serve

type size = Full | Smoke

type prepared = {
  pass : unit -> unit -> string;
      (* runs one timed pass; the returned closure runs the untimed output
         checks, raising [Failure] on the first that fails, and returns the
         pass's fingerprint *)
  probes : unit -> unit;
  strategy_input : Workload.t;  (* what the 2-domain Strategy.run re-times *)
  extras : unit -> (string * float * string) list;
      (* workload-specific layer numbers, read after the traced run *)
  spans : string list;  (* workload-specific spans the traced run must hold *)
}

type t = {
  name : string;
  why : string;
  setup : size -> seed:int -> prepared;
}

let fail fmt = Printf.ksprintf failwith fmt

let check_placement w p =
  (match Placement.validate w p with
  | Ok () -> ()
  | Error m -> fail "Placement.validate: %s" m);
  if not (Placement.leaf_only (Workload.tree w) p) then
    fail "placement is not leaf-only"

(* Every pass of a run computes on the same inputs, so every result must
   equal the previous pass's. *)
let same_as_previous prev what x =
  match !prev with
  | Some y when y <> x -> fail "%s differs from the previous pass" what
  | _ -> prev := Some x

let nibble_probes w =
  let cs = Layer.run "nibble.place_all" (fun () -> Nibble.place_all w) in
  let copies = Array.map (fun c -> c.Nibble.nodes) cs in
  Layer.run "placement.nearest" (fun () -> Placement.nearest w ~copies)

let build_input ~tree ~gen =
  let tree = Layer.run "tree.build" tree in
  Layer.run "tree.flat_index" (fun () -> ignore (Tree.flat_index tree));
  Layer.run "workload.gen" (fun () ->
      let w = gen tree in
      ignore (Workload.flat w);
      w)

(* -- place-wide / place-deep: Strategy.run + Placement.evaluate ---------- *)

let place ~tree ~gen size ~seed =
  let prng = Prng.create seed in
  let w = build_input ~tree:(fun () -> tree size) ~gen:(gen size ~prng) in
  let prev = ref None in
  let pass () =
    let res = Layer.run "core.strategy" (fun () -> Strategy.run w) in
    let p = res.Strategy.placement in
    let c = Layer.run "placement.evaluate" (fun () -> Placement.evaluate w p) in
    fun () ->
      check_placement w p;
      same_as_previous prev "placement" p;
      Printf.sprintf "congestion=%.3f" c.Placement.value
  in
  let probes () = ignore (nibble_probes w) in
  { pass; probes; strategy_input = w; extras = (fun () -> []); spans = [] }

let uniform2 = Builders.Uniform 2

let place_wide =
  {
    name = "place-wide";
    why =
      "wide shallow tree, read-mostly Zipf traffic: nibble dominates \
       Strategy.run, nearest-copy assignment is minor";
    setup =
      place
        ~tree:(function
          | Full -> Builders.balanced ~arity:4 ~height:5 ~profile:uniform2
          | Smoke -> Builders.balanced ~arity:3 ~height:3 ~profile:uniform2)
        ~gen:(fun size ~prng tree ->
          Generators.zipf_popularity ~prng tree
            ~objects:(match size with Full -> 256 | Smoke -> 16)
            ~requests_per_leaf:(match size with Full -> 64 | Smoke -> 16)
            ~exponent:1.1 ~write_fraction:0.1);
  }

let place_deep =
  {
    name = "place-deep";
    why =
      "height-1000 caterpillar, write-heavy hotspot traffic: the paper's \
       height(T) term, where nearest-copy assignment dominates";
    setup =
      place
        ~tree:(function
          | Full ->
            Builders.caterpillar ~spine:1000 ~leaves_per_bus:2 ~profile:uniform2
          | Smoke ->
            Builders.caterpillar ~spine:20 ~leaves_per_bus:2 ~profile:uniform2)
        ~gen:(fun size ~prng tree ->
          Generators.hotspot ~prng tree
            ~objects:(match size with Full -> 32 | Smoke -> 8)
            ~writers_per_object:4 ~write_rate:8 ~read_rate:6);
  }

(* -- simulate: place, two packet simulations, faulty distributed run --- *)

let sim_scale = 2
let link_spec = "1:8,1:1"
let fault_spec = "drop=0.1,until=60"

let simulate_setup size ~seed =
  let prng = Prng.create seed in
  let w =
    build_input
      ~tree:(fun () ->
        match size with
        | Full -> Builders.balanced ~arity:3 ~height:4 ~profile:uniform2
        | Smoke -> Builders.balanced ~arity:2 ~height:3 ~profile:uniform2)
      ~gen:(fun tree ->
        Generators.uniform ~prng tree
          ~objects:(match size with Full -> 48 | Smoke -> 8)
          ~max_rate:2)
  in
  let link = Result.get_ok (Link.of_spec link_spec) in
  let plan = Result.get_ok (Faults.of_spec ~seed fault_spec) in
  let prev = ref None in
  let last = ref None in
  let pass () =
    let res = Layer.run "core.strategy" (fun () -> Strategy.run w) in
    let p = res.Strategy.placement in
    let c = Layer.run "placement.evaluate" (fun () -> Placement.evaluate w p) in
    let sync = Layer.run "sim.sync" (fun () -> Sim.run ~scale:sim_scale w p) in
    let slow = Layer.run "sim.link" (fun () -> Sim.run ~scale:sim_scale ~link w p) in
    let dist =
      Layer.run "dist.faults" (fun () -> Dist.run_with_faults ~faults:plan w)
    in
    fun () ->
      check_placement w p;
      let ns =
        match dist with
        | Dist.Recovered { placement; nibble; _ } ->
          if placement <> p then
            fail "recovered distributed placement differs from Strategy.run's";
          nibble
        | Dist.Degraded _ -> fail "Dist.run_with_faults did not recover"
      in
      same_as_previous prev "simulate result" (p, sync, slow, dist);
      last := Some (sync, ns);
      Printf.sprintf
        "congestion=%.3f sim=%d/%g/%d link=%d/%g/%d dist=%d/%d"
        c.Placement.value sync.Sim.makespan sync.Sim.completion
        sync.Sim.transmissions slow.Sim.makespan slow.Sim.completion
        slow.Sim.transmissions ns.Dist_nibble.runtime.Runtime.rounds
        ns.Dist_nibble.runtime.Runtime.messages
  in
  let extras () =
    match !last with
    | None -> []
    | Some (sync, ns) ->
      let hops = float_of_int sync.Sim.transmissions in
      let depth = Layer.gauge_values "sim.queue_depth" in
      let rt = ns.Dist_nibble.runtime in
      let wasted =
        ns.Dist_nibble.retransmissions + ns.Dist_nibble.duplicates
        + ns.Dist_nibble.pure_acks
      in
      [
        ("sim.ns_per_hop", Layer.span_ms "sim.sync" *. 1e6 /. hops, "ns");
        ("sim.words_per_hop", Layer.minor_mw "sim.sync" *. 1e6 /. hops, "words");
        ("sim.transmissions", hops, "count");
        ("sim.packets", float_of_int sync.Sim.packets, "count");
        ("sim.makespan", float_of_int sync.Sim.makespan, "rounds");
        ("sim.queue_depth_max", List.fold_left max 0. depth, "hops");
        ( "sim.queue_depth_mean",
          List.fold_left ( +. ) 0. depth /. float_of_int (max 1 (List.length depth)),
          "hops" );
        ("sim_s", Layer.span_ms "sim.sync" /. 1e3, "s");
        ("sim_link_s", Layer.span_ms "sim.link" /. 1e3, "s");
        ("dist.faults_ms", Layer.span_ms "dist.faults", "ms");
        ("dist.rounds", float_of_int rt.Runtime.rounds, "count");
        ("dist.messages", float_of_int rt.Runtime.messages, "count");
        ("dist.retransmissions", float_of_int ns.Dist_nibble.retransmissions, "count");
        ( "dist.useful_ratio",
          1. -. (float_of_int wasted /. float_of_int (max 1 rt.Runtime.messages)),
          "ratio" );
      ]
  in
  {
    pass;
    probes = (fun () -> ignore (nibble_probes w));
    strategy_input = w;
    extras;
    spans = [ "sim.sync"; "sim.link"; "sim.run"; "dist.faults" ];
  }

let simulate =
  {
    name = "simulate";
    why =
      "packet simulation, synchronous and on a slow lower tier, plus the \
       fault-injected distributed run: the sim layer is nearly all of the pass";
    setup = simulate_setup;
  }

(* -- serve-hotspot: the epoch loop over recorded drift tables ---------- *)

let serve_setup size ~seed =
  let epochs = match size with Full -> 16 | Smoke -> 8 in
  let objects = match size with Full -> 32 | Smoke -> 8 in
  let tree =
    Layer.run "tree.build" (fun () ->
        match size with
        | Full -> Builders.balanced ~arity:4 ~height:4 ~profile:uniform2
        | Smoke -> Builders.balanced ~arity:3 ~height:2 ~profile:uniform2)
  in
  Layer.run "tree.flat_index" (fun () -> ignore (Tree.flat_index tree));
  (* The pass serves recorded tables (the `hbn_cli serve --replay` path),
     so generating the drift is set-up work, not serving work. *)
  let drift, tables =
    Layer.run "workload.gen" (fun () ->
        let d = Drift.create Drift.Hotspot_migration ~seed ~tree ~objects ~rate:8 in
        let ts = Serve.tables d ~epochs in
        Array.iter (fun t -> ignore (Workload.flat t)) ts;
        (d, ts))
  in
  let cfg = { Serve.default with Serve.epochs; seed } in
  let prev = ref None in
  let last = ref None in
  let pass () =
    let out =
      Layer.run "serve.run" (fun () -> Serve.run cfg (Serve.Tables tables))
    in
    fun () ->
      let final = tables.(epochs - 1) in
      let p = Placement.nearest final ~copies:out.Serve.final_copies in
      check_placement final p;
      let mean =
        List.fold_left (fun a s -> a +. s.Serve.s_congestion) 0. out.Serve.epochs
        /. float_of_int epochs
      in
      same_as_previous prev "serve outcome"
        ( out.Serve.epochs,
          out.Serve.total_bytes_migrated,
          out.Serve.reoptimized_epochs,
          out.Serve.final_copies );
      last := Some out;
      Printf.sprintf "reoptimized=%d bytes=%d mean_congestion=%.3f"
        out.Serve.reoptimized_epochs out.Serve.total_bytes_migrated mean
  in
  (* Replays the loop's per-epoch work from outside, one span per layer. *)
  let probes () =
    let copies0 = ref [||] in
    Array.iteri
      (fun e t ->
        ignore (Layer.run "drift.table" (fun () -> Drift.workload drift ~epoch:e));
        let res = Layer.run "core.strategy" (fun () -> Strategy.run t) in
        let p = res.Strategy.placement in
        ignore (Layer.run "placement.evaluate" (fun () -> Placement.evaluate t p));
        if e = 0 then
          copies0 := Array.init objects (fun obj -> Placement.copies p ~obj);
        Layer.run "serve.rebuild" (fun () ->
            ignore (Attribution.attach (Loads.of_copies t (Array.copy !copies0))));
        ignore (nibble_probes t))
      tables;
    ignore
      (Layer.run "serve.loop" (fun () ->
           Serve.run { cfg with Serve.oracle = false } (Serve.Tables tables)))
  in
  let extras () =
    match !last with
    | None -> []
    | Some out ->
      [
        ("serve_epoch_ms", Layer.span_ms "serve.run" /. float_of_int epochs, "ms");
        ("drift.table_ms", Layer.span_ms "drift.table", "ms");
        ("serve.rebuild_ms", Layer.span_ms "serve.rebuild", "ms");
        ("serve.oracle_ms", Layer.span_ms "core.strategy", "ms");
        ( "serve.loop_epoch_ms",
          Layer.span_ms "serve.loop" /. float_of_int epochs,
          "ms" );
        ("serve.reoptimized_epochs", float_of_int out.Serve.reoptimized_epochs, "count");
        ("serve.bytes_migrated", float_of_int out.Serve.total_bytes_migrated, "bytes");
      ]
  in
  {
    pass;
    probes;
    strategy_input = tables.(0);
    extras;
    spans = [ "serve.run"; "drift.table"; "serve.rebuild"; "serve.loop" ];
  }

let serve_hotspot =
  {
    name = "serve-hotspot";
    why =
      "epoch serving under hotspot-migration drift with the oracle on: \
       per-epoch load rebuilds and oracle placements, no sim or dist work";
    setup = serve_setup;
  }

let all = [ place_wide; place_deep; simulate; serve_hotspot ]

(* The fingerprint every pass must reproduce at the default seed: a speed
   change leaves it alone, so a mismatch is a behaviour change. *)
let pinned size name =
  List.assoc_opt name
    (match size with
    | Full ->
      [
        ("place-wide", "congestion=11805.500");
        ("place-deep", "congestion=1124.500");
        ( "simulate",
          "congestion=3343.500 sim=2458/2459/46562 link=2398/2400/46562 \
           dist=244/26772" );
        ("serve-hotspot", "reoptimized=10 bytes=36096 mean_congestion=10139.125");
      ]
    | Smoke ->
      [
        ("place-wide", "congestion=63.000");
        ("place-deep", "congestion=234.500");
        ("simulate", "congestion=36.000 sim=33/34/372 link=50/52/372 dist=82/759");
        ("serve-hotspot", "reoptimized=1 bytes=128 mean_congestion=116.250");
      ])
