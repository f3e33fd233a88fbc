(* The drift-detection benchmark's case matrix, one row of the Matrix
   table that the writer (bench/record.exe) and the regression gate
   (bench/check.exe) share.

   Each case drives one synthetic workload — a deterministic per-round
   traffic shape, jittered by the stateless Prng.hash so reruns are
   bit-identical — through a real bounded-memory Telemetry collector
   (small capacity, so folding happens mid-run) into a default Monitor,
   and records the detector outcome: how many alerts, which detector,
   when the first fired, and the end-of-run verdict. The matrix is the
   detectors' hit/miss contract: steady traffic must stay silent, every
   drift shape must fire, and the fade shape (nodes dying, drops rising)
   must classify as degrading. A diff against the committed
   BENCH_monitor.json means a change moved the detection frontier —
   estimator math, thresholds, folding, or the derived-series set. *)

module Prng = Hbn_prng.Prng
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor

let schema = "hbn.bench.monitor/v1"
let seed = 20260809
let rounds = 240
let num_edges = 4

(* Small enough that 240 rounds fold twice (240 -> 120 -> 60 points):
   the matrix pins detection THROUGH folding, not just on exact series. *)
let capacity = 64

type case = {
  workload : string;
  rounds : int;
  points : int;  (* retained telemetry points after folding *)
  alerts : int;  (* total alerts across all derived series *)
  cusum_alerts : int;
  ph_alerts : int;
  first_alert_round : int;  (* -1 when silent *)
  verdict : string;  (* "steady" | "drifting" | "degrading" *)
  (* Estimator state of the "sent" series at end of run — pins the
     P-square and EWMA arithmetic, not just the detectors. *)
  sent_p50 : float;
  sent_p95 : float;
  sent_mean : float;
}

(* Per-round traffic level of each synthetic workload. Base load is 48
   frames/round, so the 0..2 jitter stays inside the detectors' noise
   floor (5% of the reference mean) — that is what makes "steady stays
   silent" a property of the thresholds rather than of zero noise. The
   drift shapes shift by far more than the floor. *)
let level workload r =
  match workload with
  | "steady" -> 48
  | "step" -> if r < 120 then 48 else 96
  | "ramp" -> 48 + (r / 4)
  | "flash_crowd" -> if r >= 100 && r < 130 then 192 else 48
  | "fade" -> 48
  | _ -> invalid_arg ("monitor_cases: unknown workload " ^ workload)

(* The fade shape degrades the network rather than the load: nodes die
   one by one and a growing fraction of sends is lost. *)
let fade_live r = max 8 (32 - (r / 12))
let fade_drops r = if r < 60 then 0 else min 24 ((r - 60) / 8)

let workloads = [ "steady"; "step"; "ramp"; "flash_crowd"; "fade" ]

let workload_index w =
  let rec go i = function
    | [] -> invalid_arg ("monitor_cases: unknown workload " ^ w)
    | x :: rest -> if x = w then i else go (i + 1) rest
  in
  go 0 workloads

let run_case workload =
  let wi = workload_index workload in
  let tel = Telemetry.create ~capacity ~num_edges () in
  for r = 0 to rounds - 1 do
    Telemetry.begin_round tel ~round:r;
    let jitter = Prng.hash ~seed [ wi; r ] in
    let sends = level workload r + Int64.to_int (Int64.rem jitter 3L) in
    let drops = if workload = "fade" then fade_drops r else 0 in
    for i = 0 to sends - 1 do
      Telemetry.send tel ~edge:(i mod num_edges) ~bytes:32;
      if i < drops then Telemetry.drop tel
    done;
    let live = if workload = "fade" then fade_live r else 32 in
    Telemetry.end_round tel ~live_nodes:live
  done;
  let mon = Monitor.create () in
  Monitor.ingest mon tel;
  let alerts = Monitor.alerts mon in
  let count pred = List.length (List.filter pred alerts) in
  let is_cusum a =
    match a.Monitor.a_kind with
    | Monitor.Cusum_up | Monitor.Cusum_down -> true
    | _ -> false
  in
  let sent =
    match Monitor.estimate mon ~series:"sent" with
    | Some e -> e
    | None -> invalid_arg "monitor_cases: no sent series"
  in
  {
    workload;
    rounds;
    points = List.length (Telemetry.points tel);
    alerts = List.length alerts;
    cusum_alerts = count is_cusum;
    ph_alerts = count (fun a -> not (is_cusum a));
    first_alert_round =
      (match alerts with [] -> -1 | a :: _ -> a.Monitor.a_round);
    verdict = Monitor.verdict_name (Monitor.health mon);
    sent_p50 = sent.Monitor.e_p50;
    sent_p95 = sent.Monitor.e_p95;
    sent_mean = sent.Monitor.e_mean;
  }

let all () = List.map run_case workloads

(* The hit/miss contract: steady silent, every drift shape fires, fade
   degrades. *)
let contract cases =
  let find w = List.find (fun c -> c.workload = w) cases in
  let errs = ref [] in
  let expect cond msg = if not cond then errs := msg :: !errs in
  let steady = find "steady" in
  expect (steady.alerts = 0)
    (Printf.sprintf "steady fired %d alert(s); must stay silent"
       steady.alerts);
  List.iter
    (fun w ->
      let c = find w in
      expect (c.alerts > 0) (w ^ " fired no alert; must detect the shift"))
    [ "step"; "ramp"; "flash_crowd"; "fade" ];
  let fade = find "fade" in
  expect (fade.verdict = "degrading")
    (Printf.sprintf "fade verdict %S; must be degrading" fade.verdict);
  List.rev !errs

let json_of_case c =
  Printf.sprintf
    "    {\"workload\":%S,\"rounds\":%d,\"points\":%d,\"alerts\":%d,\
     \"cusum_alerts\":%d,\"ph_alerts\":%d,\"first_alert_round\":%d,\
     \"verdict\":%S,\"sent_p50\":%.3f,\"sent_p95\":%.3f,\"sent_mean\":%.3f}"
    c.workload c.rounds c.points c.alerts c.cusum_alerts c.ph_alerts
    c.first_alert_round c.verdict c.sent_p50 c.sent_p95 c.sent_mean
