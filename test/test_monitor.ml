(* The streaming drift monitor: estimator accuracy, change-point
   detection, folding compatibility, the degrading/drifting verdict
   split, and the determinism claims (bit-identical alerts across job
   counts and reruns) the tentpole makes. *)

module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Sink = Hbn_obs.Sink
module Prng = Hbn_prng.Prng
module Strategy = Hbn_core.Strategy
module Exec = Hbn_exec.Exec
module Sim = Hbn_sim.Sim
module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

(* Feed a plain float list as one per-round series. *)
let feed ?(series = "s") mon values =
  List.iteri
    (fun i v ->
      Monitor.observe mon ~series ~round:i ~vtime:(float_of_int i) ~span:1 v)
    values

let est mon series =
  match Monitor.estimate mon ~series with
  | Some e -> e
  | None -> Alcotest.failf "no estimate for %s" series

(* Deterministic noise from the stateless hash, scaled into [0, 1). *)
let noise seed i = Prng.hash_float ~seed [ i ]

(* -- estimators ---------------------------------------------------------- *)

let test_p2_exact_first_five () =
  (* Below five observations the P-square estimators are exact
     nearest-rank quantiles. *)
  let mon = Monitor.create () in
  feed mon [ 9.; 1.; 5. ];
  let e = est mon "s" in
  Alcotest.(check (float 1e-9)) "p50 of 3 obs" 5. e.Monitor.e_p50;
  Alcotest.(check (float 1e-9)) "p95 of 3 obs" 9. e.Monitor.e_p95

let test_p2_tracks_exact_quantiles () =
  (* 500 deterministic uniform-ish samples in [0, 100): the five-marker
     estimate must land within a few units of the exact quantile. *)
  let n = 500 in
  let values = List.init n (fun i -> 100. *. noise 7 i) in
  let mon = Monitor.create () in
  feed mon values;
  let sorted = List.sort compare values in
  let exact q = List.nth sorted (int_of_float (q *. float_of_int (n - 1))) in
  let e = est mon "s" in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.2f near exact %.2f" e.Monitor.e_p50 (exact 0.5))
    true
    (Float.abs (e.Monitor.e_p50 -. exact 0.5) < 5.);
  Alcotest.(check bool)
    (Printf.sprintf "p95 %.2f near exact %.2f" e.Monitor.e_p95 (exact 0.95))
    true
    (Float.abs (e.Monitor.e_p95 -. exact 0.95) < 5.)

let test_ewma_half_life () =
  (* After exactly one half-life of rounds at a new level, the EWMA has
     closed half the gap to it: start pinned at 0, then 16 rounds
     (= the default half-life) at 1. *)
  let mon = Monitor.create () in
  feed mon (List.init 64 (fun _ -> 0.) @ List.init 16 (fun _ -> 1.));
  let e = est mon "s" in
  Alcotest.(check (float 1e-6)) "half the gap closed" 0.5 e.Monitor.e_mean

let test_ewma_span_invariant () =
  (* A folded observation spanning s rounds decays the average exactly
     as s unfolded rounds at the same rate would. *)
  let a = Monitor.create () in
  feed a (List.init 32 (fun _ -> 0.) @ List.init 8 (fun _ -> 4.));
  let b = Monitor.create () in
  List.iteri
    (fun i v ->
      Monitor.observe b ~series:"s"
        ~round:((4 * i) + 3)
        ~vtime:(float_of_int ((4 * i) + 3))
        ~span:4 v)
    [ 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 4.; 4. ];
  Alcotest.(check (float 1e-9))
    "same EWMA folded or not" (est a "s").Monitor.e_mean
    (est b "s").Monitor.e_mean

let test_window_min_max () =
  (* The min/max window holds the last 32 observations only: an early
     spike ages out. *)
  let mon = Monitor.create () in
  feed mon ([ 100. ] @ List.init 40 (fun i -> float_of_int (10 + (i mod 3))));
  let e = est mon "s" in
  Alcotest.(check (float 1e-9)) "spike aged out" 12. e.Monitor.e_max;
  Alcotest.(check (float 1e-9)) "window min" 10. e.Monitor.e_min;
  Alcotest.(check int) "points counted" 41 e.Monitor.e_points

let test_observe_validation () =
  let mon = Monitor.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "span 0 rejected" true
    (raises (fun () ->
         Monitor.observe mon ~series:"s" ~round:0 ~vtime:0. ~span:0 1.));
  Alcotest.(check bool) "nan rejected" true
    (raises (fun () ->
         Monitor.observe mon ~series:"s" ~round:0 ~vtime:0. ~span:1 Float.nan))

(* -- detectors ----------------------------------------------------------- *)

(* Noisy level around [base] with deterministic jitter in [0, 2). *)
let noisy seed base i = base +. (2. *. noise seed i)

let test_detectors_silent_on_stationary () =
  let mon = Monitor.create () in
  feed mon (List.init 400 (noisy 11 40.));
  Alcotest.(check int) "no alerts" 0 (List.length (Monitor.alerts mon));
  Alcotest.(check bool) "verdict steady" true (Monitor.health mon = Monitor.Steady)

let test_detectors_fire_on_step () =
  let mon = Monitor.create () in
  feed mon
    (List.init 100 (noisy 11 40.) @ List.init 40 (fun i -> noisy 11 80. (100 + i)));
  let alerts = Monitor.alerts mon in
  Alcotest.(check bool) "step detected" true (alerts <> []);
  let first = List.hd alerts in
  Alcotest.(check bool) "upward kind" true
    (match first.Monitor.a_kind with
    | Monitor.Cusum_up | Monitor.Page_hinkley_up -> true
    | _ -> false);
  Alcotest.(check bool) "detected shortly after the shift" true
    (first.Monitor.a_round >= 100 && first.Monitor.a_round <= 110);
  Alcotest.(check string) "series named" "s" first.Monitor.a_series

let test_detectors_fire_on_downward_step () =
  let mon = Monitor.create () in
  feed mon
    (List.init 100 (noisy 3 80.) @ List.init 40 (fun i -> noisy 3 40. (100 + i)));
  let alerts = Monitor.alerts mon in
  Alcotest.(check bool) "drop detected" true (alerts <> []);
  Alcotest.(check bool) "downward kind" true
    (match (List.hd alerts).Monitor.a_kind with
    | Monitor.Cusum_down | Monitor.Page_hinkley_down -> true
    | _ -> false)

let test_detectors_fire_on_ramp () =
  (* A slow ramp: 40 -> 80 over 200 rounds, jitter on top. CUSUM's
     accumulation (or Page-Hinkley's mean gap) must catch it even though
     no single round looks anomalous. *)
  let mon = Monitor.create () in
  feed mon
    (List.init 300 (fun i ->
         noisy 5 (40. +. Float.min 40. (float_of_int i /. 5.)) i));
  Alcotest.(check bool) "ramp detected" true (Monitor.alerts mon <> [])

let test_alert_once_per_shift () =
  (* Re-anchoring after an alert stops the detector from latching: a
     single step on a then-stationary series yields a handful of alerts
     (one per detector family at most, for one series), not one per
     round. *)
  let mon = Monitor.create () in
  feed mon
    (List.init 100 (noisy 11 40.)
    @ List.init 200 (fun i -> noisy 11 80. (100 + i)));
  let n = List.length (Monitor.alerts mon) in
  Alcotest.(check bool)
    (Printf.sprintf "%d alerts for one shift (no latching)" n)
    true
    (n >= 1 && n <= 6)

(* -- folding compatibility ----------------------------------------------- *)

let drive_telemetry ~capacity ~level rounds =
  let tel = Telemetry.create ~capacity ~num_edges:2 () in
  for r = 0 to rounds - 1 do
    Telemetry.begin_round tel ~round:r;
    let sends = level r + Int64.to_int (Int64.rem (Prng.hash ~seed:2 [ r ]) 3L) in
    for i = 0 to sends - 1 do
      Telemetry.send tel ~edge:(i mod 2) ~bytes:16
    done;
    Telemetry.end_round tel ~live_nodes:8
  done;
  tel

let test_folding_compatible_detection () =
  (* The same stepped traffic through an unfolding collector (capacity
     >= rounds) and a folding one (240 rounds into 64 points, spans up
     to 16): both monitors must flag the sustained shift on the sent
     series, and both must stay silent on the steady workload. (Fold
     hard enough — capacity 32 folds the whole step into the warmup
     prefix — and the reference mean freezes on blended data; span
     weighting keeps sustained shifts detectable, not shifts older than
     the retained resolution.) *)
  let level r = if r < 120 then 48 else 96 in
  let detect capacity =
    let mon = Monitor.create () in
    Monitor.ingest mon (drive_telemetry ~capacity ~level 240);
    List.exists
      (fun a ->
        a.Monitor.a_series = "sent"
        &&
        match a.Monitor.a_kind with
        | Monitor.Cusum_up | Monitor.Page_hinkley_up -> true
        | _ -> false)
      (Monitor.alerts mon)
  in
  Alcotest.(check bool) "unfolded series fires" true (detect 512);
  Alcotest.(check bool) "folded series fires" true (detect 64);
  let steady capacity =
    let mon = Monitor.create () in
    Monitor.ingest mon (drive_telemetry ~capacity ~level:(fun _ -> 48) 240);
    Monitor.alerts mon = []
  in
  Alcotest.(check bool) "unfolded steady silent" true (steady 512);
  Alcotest.(check bool) "folded steady silent" true (steady 64)

let test_observe_point_series_set () =
  let mon = Monitor.create () in
  Monitor.ingest mon (drive_telemetry ~capacity:64 ~level:(fun _ -> 48) 100);
  let names = List.map (fun e -> e.Monitor.e_series) (Monitor.estimates mon) in
  Alcotest.(check (list string))
    "derived series, sorted"
    [
      "bytes"; "contractions"; "delivered"; "dropped"; "dup_suppressed";
      "edge_peak"; "edge_rest"; "hotspot_share"; "live_nodes"; "migrations";
      "replications"; "retransmits"; "sent";
    ]
    names;
  (* Traffic-free points skip the hotspot share (no 0/0). *)
  let quiet = Monitor.create () in
  let tel = Telemetry.create ~num_edges:2 () in
  Telemetry.begin_round tel ~round:0;
  Telemetry.end_round tel ~live_nodes:8;
  Monitor.ingest quiet tel;
  Alcotest.(check bool) "hotspot_share skipped without traffic" true
    (Monitor.estimate quiet ~series:"hotspot_share" = None);
  Alcotest.(check bool) "sent still observed" true
    (Monitor.estimate quiet ~series:"sent" <> None)

(* -- verdicts ------------------------------------------------------------ *)

let test_verdict_drifting_vs_degrading () =
  (* A shift on a throughput series is Drifting; the same shift on a
     degrading signal (dropped, retransmits, dup_suppressed up, or
     live_nodes down) is Degrading, and the verdict carries exactly the
     degrading alerts. *)
  let shift = List.init 100 (noisy 11 40.) @ List.init 40 (noisy 11 80.) in
  let drifting = Monitor.create () in
  feed ~series:"sim.sent" drifting shift;
  (match Monitor.health drifting with
  | Monitor.Drifting alerts ->
    Alcotest.(check bool) "alerts carried" true (alerts <> [])
  | v -> Alcotest.failf "expected Drifting, got %s" (Monitor.verdict_name v));
  let degrading = Monitor.create () in
  feed ~series:"dist.retransmits" degrading shift;
  (match Monitor.health degrading with
  | Monitor.Degrading alerts ->
    Alcotest.(check bool) "degrading alerts carried" true
      (List.for_all
         (fun a -> a.Monitor.a_series = "dist.retransmits")
         alerts)
  | v -> Alcotest.failf "expected Degrading, got %s" (Monitor.verdict_name v));
  (* live_nodes triggers on the way down, not up. *)
  let fade = Monitor.create () in
  feed ~series:"live_nodes" fade
    (List.init 100 (fun _ -> 32.)
    @ List.init 60 (fun i -> 32. -. (float_of_int i /. 4.)));
  match Monitor.health fade with
  | Monitor.Degrading _ -> ()
  | v -> Alcotest.failf "expected Degrading, got %s" (Monitor.verdict_name v)

let test_verdict_names_and_kinds () =
  Alcotest.(check string) "steady" "steady" (Monitor.verdict_name Monitor.Steady);
  List.iter
    (fun k ->
      match Monitor.kind_of_name (Monitor.kind_name k) with
      | Some k' -> Alcotest.(check bool) "kind round-trips" true (k = k')
      | None -> Alcotest.failf "kind %s does not parse" (Monitor.kind_name k))
    [
      Monitor.Cusum_up; Monitor.Cusum_down; Monitor.Page_hinkley_up;
      Monitor.Page_hinkley_down;
    ];
  Alcotest.(check bool) "unknown kind rejected" true
    (Monitor.kind_of_name "ewma_up" = None)

(* -- determinism --------------------------------------------------------- *)

let monitor_fingerprint mon =
  (* Alerts and estimates rendered to bytes: the emitted JSONL plus the
     estimate table, which together cover all observable monitor state. *)
  let buf = Buffer.create 256 in
  Monitor.emit mon (fun ev -> Buffer.add_string buf (Sink.to_json ev));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s|%d|%d|%h|%h|%h|%h|%h|%h\n" e.Monitor.e_series
           e.Monitor.e_points e.Monitor.e_rounds e.Monitor.e_last
           e.Monitor.e_mean e.Monitor.e_p50 e.Monitor.e_p95 e.Monitor.e_min
           e.Monitor.e_max))
    (Monitor.estimates mon);
  Buffer.contents buf

let prop_monitor_identical_across_jobs seed =
  (* The full pipeline at --jobs 1/2/4 feeding the simulator's telemetry
     into a fresh monitor each time: placements are bit-identical across
     job counts, so the telemetry, the alerts and every estimator bit
     must be too — and a rerun at jobs=1 must reproduce the first. *)
  let _, w = Helpers.instance seed in
  let fingerprint jobs =
    Exec.with_runner ~jobs (fun exec ->
        let res = Strategy.run ~exec w in
        let tel =
          Telemetry.create ~num_edges:(Tree.num_edges (Workload.tree w)) ()
        in
        let _ = Sim.run ~telemetry:tel w res.Strategy.placement in
        let mon = Monitor.create () in
        Monitor.ingest mon tel;
        monitor_fingerprint mon)
  in
  let base = fingerprint 1 in
  base = fingerprint 2 && base = fingerprint 4 && base = fingerprint 1

let suite =
  [
    Helpers.tc "p2: exact below five observations" test_p2_exact_first_five;
    Helpers.tc "p2: tracks exact quantiles" test_p2_tracks_exact_quantiles;
    Helpers.tc "ewma: half-life in rounds" test_ewma_half_life;
    Helpers.tc "ewma: folding-invariant decay" test_ewma_span_invariant;
    Helpers.tc "window: min/max age out" test_window_min_max;
    Helpers.tc "observe: validation" test_observe_validation;
    Helpers.tc "detectors: silent on stationary series"
      test_detectors_silent_on_stationary;
    Helpers.tc "detectors: fire on an upward step" test_detectors_fire_on_step;
    Helpers.tc "detectors: fire on a downward step"
      test_detectors_fire_on_downward_step;
    Helpers.tc "detectors: fire on a slow ramp" test_detectors_fire_on_ramp;
    Helpers.tc "detectors: re-anchor instead of latching"
      test_alert_once_per_shift;
    Helpers.tc "folding: detection survives the folded series"
      test_folding_compatible_detection;
    Helpers.tc "observe_point: derived series set"
      test_observe_point_series_set;
    Helpers.tc "verdict: drifting vs degrading split"
      test_verdict_drifting_vs_degrading;
    Helpers.tc "verdict and kind names round-trip"
      test_verdict_names_and_kinds;
    Helpers.qt ~count:25 "monitor bits identical across jobs and reruns"
      Helpers.seed_arb prop_monitor_identical_across_jobs;
  ]
