(* The serving-tier benchmark's case matrix, one row of the Matrix
   table that the writer (bench/record.exe) and the regression gate
   (bench/check.exe) share.

   Each case serves the same topology under one Drift generator through
   Serve.run — the full alert -> epoch-boundary re-optimization loop —
   and records the deterministic outcome: congestion over time (mean
   serve/stale/oracle), how many epochs re-optimized, the migration
   bytes paid, and the recovery fraction

     recovered = sum(stale - serve) / sum(stale - oracle)

   over the epochs with a meaningful stale-oracle gap. The matrix is the
   serving tier's contract: the steady control must trigger ZERO
   re-optimizations, hotspot migration must recover >= 30% of the gap,
   and no epoch may ever migrate more than the configured byte budget.
   A diff against the committed BENCH_serve.json means a change moved
   the adaptation frontier — generators, epoch arithmetic, the climb,
   the hysteresis gate, or the monitor thresholds feeding it. *)

module Builders = Hbn_tree.Builders
module Drift = Hbn_serve.Drift
module Serve = Hbn_serve.Serve
module Monitor = Hbn_obs.Monitor

let schema = "hbn.bench.serve/v1"
let seed = 20260809
let objects = 8
let rate = 8

let config =
  {
    Serve.default with
    Serve.slots_per_epoch = 16;
    epochs = 32;
    top_k = 4;
    budget_bytes = 4096;
    hysteresis = 0.5;
    seed;
  }

let tree () = Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2)

type case = {
  workload : string;
  epochs : int;
  requests : int;
  alerts : int;
  reoptimized : int;  (* epochs whose boundary climb committed *)
  bytes_migrated : int;  (* total across the run *)
  max_epoch_bytes : int;  (* worst single epoch; the budget bounds it *)
  budget_ok : bool;  (* every epoch within budget_bytes *)
  replications : int;
  migrations : int;
  contractions : int;
  verdict : string;
  mean_serve : float;  (* mean serving congestion over epochs *)
  mean_stale : float;  (* the frozen epoch-0 placement, same tables *)
  mean_oracle : float;  (* fresh static re-place per epoch *)
  recovered : float;  (* gap recovery fraction; -1 when no gap opened *)
}

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let run_case kind =
  let drift =
    Drift.create kind ~seed ~tree:(tree ()) ~objects ~rate
  in
  let out = Serve.run config (Serve.Generator drift) in
  let eps = out.Serve.epochs in
  let gap_num =
    List.fold_left
      (fun acc s ->
        let gap = s.Serve.s_stale -. s.Serve.s_oracle in
        if gap > 1e-9 then acc +. (s.Serve.s_stale -. s.Serve.s_congestion)
        else acc)
      0.0 eps
  in
  let gap_den =
    List.fold_left
      (fun acc s ->
        let gap = s.Serve.s_stale -. s.Serve.s_oracle in
        if gap > 1e-9 then acc +. gap else acc)
      0.0 eps
  in
  {
    workload = Drift.kind_name kind;
    epochs = List.length eps;
    requests = out.Serve.total_requests;
    alerts = List.length out.Serve.alerts;
    reoptimized = out.Serve.reoptimized_epochs;
    bytes_migrated = out.Serve.total_bytes_migrated;
    max_epoch_bytes =
      List.fold_left (fun acc s -> max acc s.Serve.s_bytes_migrated) 0 eps;
    budget_ok =
      List.for_all
        (fun s -> s.Serve.s_bytes_migrated <= config.Serve.budget_bytes)
        eps;
    replications =
      List.fold_left (fun acc s -> acc + s.Serve.s_replications) 0 eps;
    migrations = List.fold_left (fun acc s -> acc + s.Serve.s_migrations) 0 eps;
    contractions =
      List.fold_left (fun acc s -> acc + s.Serve.s_contractions) 0 eps;
    verdict = Monitor.verdict_name out.Serve.verdict;
    mean_serve = mean (List.map (fun s -> s.Serve.s_congestion) eps);
    mean_stale = mean (List.map (fun s -> s.Serve.s_stale) eps);
    mean_oracle = mean (List.map (fun s -> s.Serve.s_oracle) eps);
    recovered = (if gap_den > 1e-9 then gap_num /. gap_den else -1.0);
  }

let all () = List.map run_case Drift.all_kinds

(* The adaptation contract: steady never re-optimizes, hotspot
   migration recovers >= 30% of the stale-oracle congestion gap, no
   epoch exceeds the migration byte budget. *)
let contract cases =
  let find w = List.find (fun c -> c.workload = w) cases in
  let errs = ref [] in
  let expect cond msg = if not cond then errs := msg :: !errs in
  let steady = find "steady" in
  expect
    (steady.reoptimized = 0 && steady.bytes_migrated = 0)
    (Printf.sprintf
       "steady re-optimized %d epoch(s), migrated %d bytes; must do neither"
       steady.reoptimized steady.bytes_migrated);
  expect (steady.alerts = 0)
    (Printf.sprintf "steady fired %d alert(s); must stay silent"
       steady.alerts);
  let hot = find "hotspot_migration" in
  expect
    (hot.recovered >= 0.30)
    (Printf.sprintf
       "hotspot migration recovered %.3f of the stale-oracle gap; need >= 0.30"
       hot.recovered);
  expect (hot.reoptimized > 0)
    "hotspot migration never re-optimized; the drift must trigger the loop";
  List.iter
    (fun c ->
      expect c.budget_ok
        (Printf.sprintf "%s migrated %d bytes in one epoch; budget is %d"
           c.workload c.max_epoch_bytes config.Serve.budget_bytes))
    cases;
  List.rev !errs

let json_of_case c =
  Printf.sprintf
    "    {\"workload\":%S,\"epochs\":%d,\"requests\":%d,\"alerts\":%d,\
     \"reoptimized\":%d,\"bytes_migrated\":%d,\"max_epoch_bytes\":%d,\
     \"budget_ok\":%b,\"replications\":%d,\"migrations\":%d,\
     \"contractions\":%d,\"verdict\":%S,\"mean_serve\":%.3f,\
     \"mean_stale\":%.3f,\"mean_oracle\":%.3f,\"recovered\":%.3f}"
    c.workload c.epochs c.requests c.alerts c.reoptimized c.bytes_migrated
    c.max_epoch_bytes c.budget_ok c.replications c.migrations c.contractions
    c.verdict c.mean_serve c.mean_stale c.mean_oracle c.recovered
