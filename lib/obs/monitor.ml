(* Online drift detection over telemetry series. Everything here is a
   pure fold over the observation sequence — no RNG, no clocks — so
   monitor state and emitted alerts are bit-identical across job counts
   and reruns. See monitor.mli for the estimator/detector math and
   DESIGN.md section 15 for the folding-compatibility argument. *)

type kind = Cusum_up | Cusum_down | Page_hinkley_up | Page_hinkley_down

type alert = {
  a_round : int;
  a_vtime : float;
  a_series : string;
  a_kind : kind;
  a_magnitude : float;
}

type verdict = Steady | Drifting of alert list | Degrading of alert list

type estimate = {
  e_series : string;
  e_points : int;
  e_rounds : int;
  e_last : float;
  e_mean : float;
  e_p50 : float;
  e_p95 : float;
  e_min : float;
  e_max : float;
}

(* P-square estimator for one quantile (Jain & Chlamtac 1985): five
   markers whose heights approximate the [0; p/2; p; (1+p)/2; 1]
   quantiles, positions nudged toward their desired values by parabolic
   (falling back to linear) interpolation. Exact while n <= 5. *)
type p2 = {
  p : float;
  heights : float array; (* 5 marker heights, ascending *)
  positions : int array; (* 5 marker positions, 1-based *)
  mutable count : int;
}

let p2_create p = { p; heights = Array.make 5 0.0; positions = [| 1; 2; 3; 4; 5 |]; count = 0 }

let p2_desired t i =
  (* desired (float) position of marker i after t.count observations *)
  let d = [| 0.0; t.p /. 2.0; t.p; (1.0 +. t.p) /. 2.0; 1.0 |] in
  1.0 +. ((float_of_int t.count -. 1.0) *. d.(i))

let p2_observe t v =
  if t.count < 5 then begin
    (* insertion into the sorted prefix *)
    let i = ref t.count in
    while !i > 0 && t.heights.(!i - 1) > v do
      t.heights.(!i) <- t.heights.(!i - 1);
      decr i
    done;
    t.heights.(!i) <- v;
    t.count <- t.count + 1
  end
  else begin
    let q = t.heights and n = t.positions in
    let k =
      if v < q.(0) then begin
        q.(0) <- v;
        0
      end
      else if v >= q.(4) then begin
        q.(4) <- v;
        3
      end
      else begin
        let k = ref 0 in
        for i = 0 to 2 do
          if q.(i + 1) <= v then k := i + 1
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      n.(i) <- n.(i) + 1
    done;
    t.count <- t.count + 1;
    for i = 1 to 3 do
      let d = p2_desired t i -. float_of_int n.(i) in
      if
        (d >= 1.0 && n.(i + 1) - n.(i) > 1)
        || (d <= -1.0 && n.(i - 1) - n.(i) < -1)
      then begin
        let s = if d >= 0.0 then 1 else -1 in
        let fs = float_of_int s in
        let np = float_of_int n.(i + 1)
        and nc = float_of_int n.(i)
        and nm = float_of_int n.(i - 1) in
        (* piecewise-parabolic candidate *)
        let cand =
          q.(i)
          +. fs /. (np -. nm)
             *. ((nc -. nm +. fs) *. (q.(i + 1) -. q.(i)) /. (np -. nc)
                +. (np -. nc -. fs) *. (q.(i) -. q.(i - 1)) /. (nc -. nm))
        in
        if q.(i - 1) < cand && cand < q.(i + 1) then q.(i) <- cand
        else
          (* linear fallback keeps the heights ordered *)
          q.(i) <-
            q.(i)
            +. fs *. (q.(i + s) -. q.(i))
               /. float_of_int (n.(i + s) - n.(i));
        n.(i) <- n.(i) + s
      end
    done
  end

let p2_value t =
  if t.count = 0 then 0.0
  else if t.count >= 5 then t.heights.(2)
  else begin
    (* exact nearest-rank quantile over the sorted prefix *)
    let rank = int_of_float (ceil (t.p *. float_of_int t.count)) in
    t.heights.(max 0 (min (t.count - 1) (rank - 1)))
  end

type series = {
  name : string;
  mutable points : int;
  mutable rounds : int;
  mutable last : float;
  (* EWMA mean / variance, half-life in rounds *)
  mutable ewma : float;
  mutable ewvar : float;
  p50 : p2;
  p95 : p2;
  (* sliding window for min/max *)
  window : float array;
  mutable win_len : int;
  mutable win_next : int;
  (* reference distribution, frozen after warmup (re-anchored on alert) *)
  warm : float array;
  mutable armed : bool;
  mutable mu : float;
  mutable sigma : float;
  (* CUSUM sums *)
  mutable s_up : float;
  mutable s_down : float;
  (* Page-Hinkley: running mean of z, cumulative sums vs extrema *)
  mutable z_sum : float;
  mutable z_weight : float;
  mutable ph_up : float;
  mutable ph_up_min : float;
  mutable ph_down : float;
  mutable ph_down_max : float;
}

(* Observations that freeze a series' reference before the detectors
   arm, the EWMA half-life in rounds, and the min/max window length. *)
let warmup = 8
let half_life = 16.0
let win_size = 32

(* The detectors' thresholds, in sigma units: CUSUM's [h] and slack [k],
   Page-Hinkley's [lambda] and [delta]. *)
let cusum_h = 8.0
let cusum_k = 0.5
let ph_lambda = 8.0
let ph_delta = 0.05

type t = {
  prefix : string; (* "" or "<prefix>." — prepended to every series name *)
  table : (string, series) Hashtbl.t;
  mutable order : string list; (* creation order, reversed *)
  mutable alerts_rev : alert list;
}

let create ?prefix () =
  let prefix =
    match prefix with
    | None -> ""
    | Some "" -> invalid_arg "Monitor.create: prefix must be non-empty"
    | Some p -> p ^ "."
  in
  {
    prefix;
    table = Hashtbl.create 16;
    order = [];
    alerts_rev = [];
  }

let series_create name =
  {
    name;
    points = 0;
    rounds = 0;
    last = 0.0;
    ewma = 0.0;
    ewvar = 0.0;
    p50 = p2_create 0.5;
    p95 = p2_create 0.95;
    window = Array.make win_size 0.0;
    win_len = 0;
    win_next = 0;
    warm = Array.make warmup 0.0;
    armed = false;
    mu = 0.0;
    sigma = 1.0;
    s_up = 0.0;
    s_down = 0.0;
    z_sum = 0.0;
    z_weight = 0.0;
    ph_up = 0.0;
    ph_up_min = 0.0;
    ph_down = 0.0;
    ph_down_max = 0.0;
  }

(* Series are keyed under their full (prefixed) name, so alerts carry
   the same name the telemetry series was emitted under — the CLI no
   longer re-keys alert events after the fact. *)
let series_of t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
      let s = series_create name in
      Hashtbl.add t.table name s;
      t.order <- name :: t.order;
      s

(* The deviation floor keeps z finite on constant warmups and stops
   sub-5% wobble around the mean from ever standardizing large. *)
let scale_floor mu sd = Float.max sd (Float.max (0.05 *. Float.max 1.0 (Float.abs mu)) 1e-9)

let detector_reset s =
  s.s_up <- 0.0;
  s.s_down <- 0.0;
  s.z_sum <- 0.0;
  s.z_weight <- 0.0;
  s.ph_up <- 0.0;
  s.ph_up_min <- 0.0;
  s.ph_down <- 0.0;
  s.ph_down_max <- 0.0

(* Re-anchor the reference to the current EWMA so each sustained shift
   alerts once instead of latching every subsequent point. *)
let re_anchor s =
  s.mu <- s.ewma;
  s.sigma <- scale_floor s.ewma (sqrt (Float.max 0.0 s.ewvar));
  detector_reset s

let raise_alert t s ~round ~vtime kind magnitude =
  t.alerts_rev <-
    {
      a_round = round;
      a_vtime = vtime;
      a_series = s.name;
      a_kind = kind;
      a_magnitude = magnitude;
    }
    :: t.alerts_rev;
  re_anchor s

let detect t s ~round ~vtime ~weight v =
  let z = (v -. s.mu) /. s.sigma in
  s.s_up <- Float.max 0.0 (s.s_up +. (weight *. (z -. cusum_k)));
  s.s_down <- Float.max 0.0 (s.s_down +. (weight *. (-.z -. cusum_k)));
  if s.s_up > cusum_h then raise_alert t s ~round ~vtime Cusum_up s.s_up
  else if s.s_down > cusum_h then
    raise_alert t s ~round ~vtime Cusum_down s.s_down
  else begin
    s.z_sum <- s.z_sum +. (weight *. z);
    s.z_weight <- s.z_weight +. weight;
    let z_bar = s.z_sum /. s.z_weight in
    s.ph_up <- s.ph_up +. (weight *. (z -. z_bar -. ph_delta));
    s.ph_up_min <- Float.min s.ph_up_min s.ph_up;
    s.ph_down <- s.ph_down +. (weight *. (z -. z_bar +. ph_delta));
    s.ph_down_max <- Float.max s.ph_down_max s.ph_down;
    if s.ph_up -. s.ph_up_min > ph_lambda then
      raise_alert t s ~round ~vtime Page_hinkley_up (s.ph_up -. s.ph_up_min)
    else if s.ph_down_max -. s.ph_down > ph_lambda then
      raise_alert t s ~round ~vtime Page_hinkley_down
        (s.ph_down_max -. s.ph_down)
  end

let observe t ~series:name ~round ~vtime ~span v =
  if span < 1 then invalid_arg "Monitor.observe: span < 1";
  if not (Float.is_finite v) then
    invalid_arg "Monitor.observe: non-finite value";
  let s = series_of t name in
  (* estimators *)
  if s.points = 0 then begin
    s.ewma <- v;
    s.ewvar <- 0.0
  end
  else begin
    let a = Float.pow 2.0 (-.float_of_int span /. half_life) in
    let d = v -. s.ewma in
    s.ewvar <- (a *. s.ewvar) +. ((1.0 -. a) *. d *. d);
    s.ewma <- (a *. s.ewma) +. ((1.0 -. a) *. v)
  end;
  p2_observe s.p50 v;
  p2_observe s.p95 v;
  s.window.(s.win_next) <- v;
  s.win_next <- (s.win_next + 1) mod win_size;
  s.win_len <- min (s.win_len + 1) win_size;
  s.last <- v;
  (* warm up, then detect *)
  if s.armed then detect t s ~round ~vtime ~weight:(float_of_int span) v
  else begin
    s.warm.(s.points) <- v;
    if s.points + 1 = warmup then begin
      let sum = Array.fold_left ( +. ) 0.0 s.warm in
      let mu = sum /. float_of_int warmup in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0.0 s.warm
        /. float_of_int warmup
      in
      s.mu <- mu;
      s.sigma <- scale_floor mu (sqrt var);
      s.armed <- true
    end
  end;
  s.points <- s.points + 1;
  s.rounds <- s.rounds + span

let observe_point t (p : Telemetry.point) =
  let ob name v =
    observe t ~series:name ~round:p.Telemetry.round ~vtime:p.Telemetry.vtime
      ~span:p.Telemetry.rounds v
  in
  let rate v = float_of_int v /. float_of_int p.Telemetry.rounds in
  ob "sent" (rate p.Telemetry.sent);
  ob "delivered" (rate p.Telemetry.delivered);
  ob "dropped" (rate p.Telemetry.dropped);
  ob "bytes" (rate p.Telemetry.bytes);
  ob "retransmits" (rate p.Telemetry.retransmits);
  ob "dup_suppressed" (rate p.Telemetry.dup_suppressed);
  (* Reconfiguration rates are fed unconditionally (zeros included) so
     the detectors warm on the quiet baseline and a migration storm
     registers as a shift, not as a first observation. *)
  ob "replications" (rate p.Telemetry.replications);
  ob "migrations" (rate p.Telemetry.migrations);
  ob "contractions" (rate p.Telemetry.contractions);
  ob "live_nodes" (float_of_int p.Telemetry.live_nodes);
  let top = match p.Telemetry.edges with [] -> 0 | (_, c) :: _ -> c in
  ob "edge_peak" (rate top);
  ob "edge_rest" (rate p.Telemetry.other_edges);
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) p.Telemetry.other_edges
      p.Telemetry.edges
  in
  if total > 0 then ob "hotspot_share" (float_of_int top /. float_of_int total)

let ingest t tel = List.iter (observe_point t) (Telemetry.points tel)
let alerts t = List.rev t.alerts_rev

let estimate_of s =
  let e_min = ref infinity and e_max = ref neg_infinity in
  for i = 0 to s.win_len - 1 do
    e_min := Float.min !e_min s.window.(i);
    e_max := Float.max !e_max s.window.(i)
  done;
  {
    e_series = s.name;
    e_points = s.points;
    e_rounds = s.rounds;
    e_last = s.last;
    e_mean = s.ewma;
    e_p50 = p2_value s.p50;
    e_p95 = p2_value s.p95;
    e_min = (if s.win_len = 0 then 0.0 else !e_min);
    e_max = (if s.win_len = 0 then 0.0 else !e_max);
  }

let estimates t =
  List.rev t.order
  |> List.map (fun name -> estimate_of (Hashtbl.find t.table name))
  |> List.sort (fun a b -> String.compare a.e_series b.e_series)

let estimate t ~series =
  match Hashtbl.find_opt t.table series with
  | Some s -> Some (estimate_of s)
  | None ->
      (* accept the unprefixed name too, for callers that fed the
         monitor through [observe ~series] without the prefix *)
      Option.map estimate_of (Hashtbl.find_opt t.table (t.prefix ^ series))

(* A degrading signal: loss-like series rising or liveness-like series
   falling. Series names may arrive prefixed ("dist.dropped"), so
   classify on the suffix after the last dot. *)
let base_name name =
  let name =
    match String.index_opt name '[' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let degrading a =
  match (base_name a.a_series, a.a_kind) with
  | ("dropped" | "retransmits" | "dup_suppressed"), (Cusum_up | Page_hinkley_up)
    ->
      true
  | "live_nodes", (Cusum_down | Page_hinkley_down) -> true
  | _ -> false

let health t =
  match alerts t with
  | [] -> Steady
  | all -> (
      match List.filter degrading all with
      | [] -> Drifting all
      | bad -> Degrading bad)

let verdict_name = function
  | Steady -> "steady"
  | Drifting _ -> "drifting"
  | Degrading _ -> "degrading"

let kind_name = function
  | Cusum_up -> "cusum_up"
  | Cusum_down -> "cusum_down"
  | Page_hinkley_up -> "page_hinkley_up"
  | Page_hinkley_down -> "page_hinkley_down"

let kind_of_name = function
  | "cusum_up" -> Some Cusum_up
  | "cusum_down" -> Some Cusum_down
  | "page_hinkley_up" -> Some Page_hinkley_up
  | "page_hinkley_down" -> Some Page_hinkley_down
  | _ -> None

let sink_event a =
  {
    Sink.name = "monitor.alert";
    id = 0;
    parent = 0;
    payload =
      Sink.Alert
        {
          round = a.a_round;
          time = a.a_vtime;
          series = a.a_series;
          kind = kind_name a.a_kind;
          magnitude = a.a_magnitude;
        };
    attrs = [];
  }

let emit t f = List.iter (fun a -> f (sink_event a)) (alerts t)
