(* The metric table BENCHMARK.json mirrors (the smoke rule checks that the
   two agree) and the derivation of every per-layer metric from the
   traced run's buffer. *)

type t = {
  name : string;
  unit_ : string;
  bound : float option;  (* share of the baseline median; e2e only *)
}

(* Lower is better for every metric of this benchmark except the
   two-domain speedup. *)
let better m = if m.name = "exec.j2_speedup" then "higher" else "lower"

let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; bound = Some 0.25 };
    { name = "run_s"; unit_ = "s"; bound = Some 0.25 };
    { name = "heap_peak_mb"; unit_ = "MB"; bound = Some 0.20 };
  ]

let layer name unit_ = { name; unit_; bound = None }

let per_layer =
  [
    layer "tree.build_ms" "ms";
    layer "tree.flat_index_ms" "ms";
    layer "workload.gen_ms" "ms";
    layer "strategy.run_ms" "ms";
    layer "strategy.nibble_ms" "ms";
    layer "strategy.deletion_ms" "ms";
    layer "strategy.mapping_ms" "ms";
    layer "strategy.other_ms" "ms";
    layer "strategy.minor_mw" "Mwords";
    layer "strategy.major_mw" "Mwords";
    layer "nibble.place_all_ms" "ms";
    layer "placement.nearest_ms" "ms";
    layer "placement.evaluate_ms" "ms";
    layer "pass.minor_mw" "Mwords";
    layer "pass.major_mw" "Mwords";
    layer "exec.strategy_j2_ms" "ms";
    layer "exec.j2_speedup" "ratio";
    layer "trace.overhead_ratio" "ratio";
  ]

(* The spans the per-layer metrics are read from; a traced run missing
   any of them is broken. *)
let spans =
  [
    "e2e.setup"; "e2e.pass"; "e2e.probes"; "tree.build"; "tree.flat_index";
    "workload.gen"; "core.strategy"; "strategy.run"; "strategy.nibble";
    "strategy.deletion"; "strategy.mapping"; "nibble.place_all";
    "placement.nearest"; "placement.evaluate";
  ]

type traced = {
  untraced_pass_s : float;
  traced_pass_s : float;
  j2_ms : float;
  seq_ms : float;
}

let derive t =
  let strategy_phases =
    [ "strategy.nibble"; "strategy.deletion"; "strategy.mapping" ]
  in
  let values =
    [
      ("tree.build_ms", Layer.span_ms "tree.build");
      ("tree.flat_index_ms", Layer.span_ms "tree.flat_index");
      ("workload.gen_ms", Layer.span_ms "workload.gen");
      ("strategy.run_ms", Layer.span_ms "strategy.run");
      ("strategy.nibble_ms", Layer.span_ms "strategy.nibble");
      ("strategy.deletion_ms", Layer.span_ms "strategy.deletion");
      ("strategy.mapping_ms", Layer.span_ms "strategy.mapping");
      ( "strategy.other_ms",
        Layer.span_rest_ms "strategy.run" ~children:strategy_phases );
      ("strategy.minor_mw", Layer.minor_mw "core.strategy");
      ("strategy.major_mw", Layer.major_mw "core.strategy");
      ("nibble.place_all_ms", Layer.span_ms "nibble.place_all");
      ("placement.nearest_ms", Layer.span_ms "placement.nearest");
      ("placement.evaluate_ms", Layer.span_ms "placement.evaluate");
      ("pass.minor_mw", Layer.minor_mw "e2e.pass");
      ("pass.major_mw", Layer.major_mw "e2e.pass");
      ("exec.strategy_j2_ms", t.j2_ms);
      ("exec.j2_speedup", t.seq_ms /. t.j2_ms);
      ("trace.overhead_ratio", t.traced_pass_s /. t.untraced_pass_s);
    ]
  in
  List.map (fun m -> (m, List.assoc m.name values)) per_layer

(* -- BENCHMARK.json agreement -------------------------------------------- *)

module Json = Hbn_obs.Json

let check_spec ~path ~workloads =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let* doc = Json.parse_result text in
  let list key =
    Option.value ~default:[]
      (Option.bind (Json.member key doc) Json.to_list)
  in
  let str k o = Option.bind (Json.member k o) Json.to_string in
  let entry o =
    ( str "name" o,
      str "unit" o,
      str "better" o,
      Option.bind (Json.member "bound" o) Json.to_float )
  in
  let ours with_bound ms =
    List.map
      (fun m ->
        ( Some m.name,
          Some m.unit_,
          Some (better m),
          if with_bound then m.bound else None ))
      ms
  in
  let show (n, u, b, bd) =
    Printf.sprintf "%s/%s/%s/%s"
      (Option.value ~default:"?" n)
      (Option.value ~default:"?" u)
      (Option.value ~default:"?" b)
      (match bd with None -> "-" | Some x -> string_of_float x)
  in
  let agree what theirs ours =
    if theirs = ours then Ok ()
    else
      Error
        (Printf.sprintf "%s: BENCHMARK.json lists [%s], the benchmark [%s]" what
           (String.concat "; " (List.map show theirs))
           (String.concat "; " (List.map show ours)))
  in
  let* () =
    agree "end_to_end" (List.map entry (list "end_to_end")) (ours true end_to_end)
  in
  let* () =
    agree "per_layer" (List.map entry (list "per_layer")) (ours false per_layer)
  in
  let theirs = List.map (fun o -> (str "name" o, str "why" o)) (list "workloads") in
  if theirs = List.map (fun (n, w) -> (Some n, Some w)) workloads then Ok ()
  else Error "workloads: BENCHMARK.json and the benchmark differ in names or whys"
