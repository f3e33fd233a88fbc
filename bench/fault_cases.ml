(* The fault-injection benchmark's case matrix, one row of the Matrix
   table that the writer (bench/record.exe) and the regression gate
   (bench/check.exe) share.

   Every field below is deterministic: the fault schedule is a pure
   function of the plan seed, the hardened protocol is synchronous, and
   the recovered placement is checked against the sequential strategy.
   A diff against the committed BENCH_faults.json therefore means a code
   change altered recovery behaviour — retransmit policy, termination
   detection, fault accounting — not just speed. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Dist = Hbn_dist.Dist
module Dist_nibble = Hbn_dist.Dist_nibble
module Faults = Hbn_dist.Faults
module Runtime = Hbn_dist.Runtime
module Telemetry = Hbn_obs.Telemetry

let schema = "hbn.bench.faults/v1"
let seed = 20260806
let objects = 12

(* Bounded so the baked-in permanent-crash case degrades quickly. *)
let max_rounds = 2_000

type case = {
  topology : string;
  plan : string;  (* canonical spec, as parsed *)
  outcome : string;  (* "recovered" or "degraded:<reason>" *)
  rounds : int;
  messages : int;
  retransmissions : int;
  duplicates : int;
  pure_acks : int;
  fault_events : int;
  dropped : int;
  undecided : int;
  congestion : float;  (* recovered placement; -1 when degraded *)
  (* Telemetry series fields — as deterministic as the run itself, so a
     diff means the collector (folding, edge cut, hooks) changed. *)
  tel_points : int;  (* retained points after bounded-memory folding *)
  tel_sent : int;  (* Σ sent over the series = total frames attempted *)
  tel_bytes : int;  (* Σ bytes over the series *)
  tel_peak_sent : int;  (* busiest point's sent count *)
}

let topologies () =
  [
    ("balanced-a3h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2));
    ("star-16", Builders.star ~leaves:16 ~profile:(Builders.Uniform 4));
    ("caterpillar-8x2", Builders.caterpillar ~spine:8 ~leaves_per_bus:2 ~profile:(Builders.Uniform 2));
  ]

let plans =
  [
    "drop=0";  (* empty plan: the hardened protocol with zero faults *)
    "drop=0.05,until=100";
    "drop=0.2,until=60";
    "drop=0.1,until=50,crash=2:10-30,cut=0:8-20";
    "crash=1:1-inf";  (* unrecoverable: must degrade, not hang or raise *)
  ]

let run_case ~prng ~topology:(tname, tree) ~plan:spec =
  let w = Generators.uniform ~prng tree ~objects ~max_rate:8 in
  let plan =
    match Faults.of_spec ~seed spec with
    | Ok p -> p
    | Error e -> invalid_arg (Printf.sprintf "fault_cases: bad plan %S: %s" spec e)
  in
  let telemetry = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let report = Dist.run_with_faults ~max_rounds ~faults:plan ~telemetry w in
  let outcome, nibble, log, congestion =
    match report with
    | Dist.Recovered { placement; nibble; log; _ } ->
      ("recovered", nibble, log, Placement.congestion w placement)
    | Dist.Degraded { reason; nibble; log; _ } ->
      ( (match reason with
        | `Round_limit -> "degraded:round_limit"
        | `Undecided -> "degraded:undecided"
        | `Diverged -> "degraded:diverged"),
        nibble,
        log,
        -1.0 )
  in
  let dropped =
    List.length
      (List.filter
         (fun e -> match e.Faults.kind with Faults.Dropped _ -> true | _ -> false)
         log)
  in
  {
    topology = tname;
    plan = Faults.to_spec plan;
    outcome;
    rounds = nibble.Dist_nibble.runtime.Runtime.rounds;
    messages = nibble.Dist_nibble.runtime.Runtime.messages;
    retransmissions = nibble.Dist_nibble.retransmissions;
    duplicates = nibble.Dist_nibble.duplicates;
    pure_acks = nibble.Dist_nibble.pure_acks;
    fault_events = List.length log;
    dropped;
    undecided = nibble.Dist_nibble.undecided;
    congestion;
    tel_points = List.length (Telemetry.points telemetry);
    tel_sent =
      List.fold_left
        (fun acc p -> acc + p.Telemetry.sent)
        0 (Telemetry.points telemetry);
    tel_bytes =
      List.fold_left
        (fun acc p -> acc + p.Telemetry.bytes)
        0 (Telemetry.points telemetry);
    tel_peak_sent =
      List.fold_left
        (fun acc p -> max acc p.Telemetry.sent)
        0 (Telemetry.points telemetry);
  }

let all () =
  let prng = Prng.create seed in
  List.concat_map
    (fun topology -> List.map (fun plan -> run_case ~prng ~topology ~plan) plans)
    (topologies ())

(* The recovery contract is one fixed instance outside the matrix: a
   drop plan on the first topology with the workload drawn first from a
   fresh [seed] (the matrix's own drop=0.2 row draws third), which must
   recover. *)
let contract (_ : case list) =
  let prng = Prng.create seed in
  let case =
    run_case ~prng ~topology:(List.hd (topologies ())) ~plan:"drop=0.2,until=60"
  in
  if case.outcome = "recovered" then []
  else [ Printf.sprintf "expected recovery, got %s" case.outcome ]

let json_of_case c =
  Printf.sprintf
    "    {\"topology\":%S,\"plan\":%S,\"outcome\":%S,\"rounds\":%d,\
     \"messages\":%d,\"retransmissions\":%d,\"duplicates\":%d,\
     \"pure_acks\":%d,\"fault_events\":%d,\"dropped\":%d,\"undecided\":%d,\
     \"congestion\":%.3f,\"tel_points\":%d,\"tel_sent\":%d,\"tel_bytes\":%d,\
     \"tel_peak_sent\":%d}"
    c.topology c.plan c.outcome c.rounds c.messages c.retransmissions
    c.duplicates c.pure_acks c.fault_events c.dropped c.undecided c.congestion
    c.tel_points c.tel_sent c.tel_bytes c.tel_peak_sent
