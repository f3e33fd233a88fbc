(** Online drift detection over the per-round telemetry feed.

    {!Telemetry} records how a run evolved; this module watches the same
    series {e while they stream} and says whether anything shifted. A
    monitor holds bounded per-series state — streaming estimators and
    two change-point detectors — and turns level shifts into structured
    {!alert} events plus an end-of-run {!verdict}. That is the drift
    trigger the ROADMAP's adaptive serving tier needs: the paper's
    congestion bound ([C <= 7 * C_opt]) is a statement about a load
    pattern, and the monitor is what notices the pattern changed.

    {2 Estimators (per series, O(1) memory each)}

    - [p50]/[p95]: P-square quantile estimators (Jain & Chlamtac 1985) —
      five markers per quantile, piecewise-parabolic adjustment, exact
      over the first five observations.
    - [mean]: an exponentially weighted moving average whose half-life
      of 16 is measured in {e rounds}, not observations — a folded point
      spanning [s] rounds decays the average by [2^(-s/16)], so the
      estimate is invariant to when folding happened.
    - [min]/[max]: exact over a sliding window of the last 32
      observations.

    {2 Detectors (deterministic, no RNG)}

    Both detectors run on standardized residuals [z = (v - mu) / sigma]
    where [mu]/[sigma] are frozen from the first 8 observations
    (and re-anchored to the EWMA after each alert, so a detector signals
    each shift once instead of latching):

    - CUSUM: two-sided, [S+ <- max 0 (S+ + s*(z - k))] and
      [S- <- max 0 (S- + s*(-z - k))] with slack [k] and span weight
      [s]; alert when either sum exceeds the threshold [h]. Magnitude is
      the sum at crossing.
    - Page-Hinkley: [m <- m + s*(z - zbar - delta)] against the running
      minimum (maximum for the downward test); alert when the gap
      exceeds [lambda]. Magnitude is the gap at crossing.

    Span weighting makes both tests consume a folded series the same way
    they would the exact one: a point covering [s] rounds moves the
    statistic [s] rounds' worth. Together with normalizing counter
    fields to per-round rates ([value / span]), a monitor fed the folded
    {!Telemetry.points} and one fed the unfolded sequence agree on the
    sustained shifts that matter (the folding-compatibility argument is
    DESIGN.md section 15).

    Everything is a pure fold over the observation sequence — no clocks,
    no RNG, no allocation proportional to run length — so monitor state
    and every emitted alert are bit-identical across [--jobs] counts and
    across reruns. *)

type t

type kind =
  | Cusum_up
  | Cusum_down
  | Page_hinkley_up
  | Page_hinkley_down

type alert = {
  a_round : int;  (** round of the observation that crossed *)
  a_vtime : float;  (** virtual time of that observation *)
  a_series : string;  (** series name, e.g. ["dist.retransmits"] *)
  a_kind : kind;
  a_magnitude : float;  (** detector statistic at crossing *)
}

type verdict =
  | Steady  (** no detector fired *)
  | Drifting of alert list  (** shifts, none on a degrading signal *)
  | Degrading of alert list
      (** at least one alert on a degrading signal — dropped,
          retransmits or dup_suppressed rising, live_nodes falling; the
          list carries exactly those alerts *)

type estimate = {
  e_series : string;
  e_points : int;  (** observations folded in *)
  e_rounds : int;  (** rounds covered (sum of spans) *)
  e_last : float;  (** most recent value *)
  e_mean : float;  (** EWMA, half-life in rounds *)
  e_p50 : float;
  e_p95 : float;
  e_min : float;  (** windowed minimum *)
  e_max : float;  (** windowed maximum *)
}

val create : ?prefix:string -> unit -> t
(** A fresh monitor. [prefix] (default none, must be non-empty when
    given) is prepended as ["<prefix>."] to every series name at
    {!observe} time, so alerts carry the same fully-qualified name the
    matching telemetry series is emitted under ([Telemetry.emit
    ~prefix]) — no downstream re-keying; an empty [prefix] raises
    [Invalid_argument]. The estimators and detectors are fixed: 8
    observations per series freeze the reference mean/deviation before
    the detectors arm, the EWMA half-life is 16 rounds, the min/max
    window holds 32 observations, and the thresholds, in sigma units,
    are CUSUM [h = 8.0] and [k = 0.5], Page-Hinkley [lambda = 8.0] and
    [delta = 0.05]. *)

val observe :
  t -> series:string -> round:int -> vtime:float -> span:int -> float -> unit
(** Feeds one observation: the named series had this value over the
    [span] runtime rounds ending at [round] (virtual time [vtime]).
    Creates the series on first sight. Raises [Invalid_argument] on
    [span < 1] or a non-finite value. *)

val ingest : t -> Telemetry.t -> unit
(** Feeds every derived series of each of [Telemetry.points], in order —
    what the engines call at end of run: counter fields as per-round
    rates ([sent], [delivered], [dropped], [bytes], [retransmits],
    [dup_suppressed], [replications], [migrations], [contractions] —
    the last three unconditionally, zeros included, so a quiet baseline
    is armed before any migration storm), [live_nodes] as a level, the
    busiest edge's rate as [edge_peak], the remainder as [edge_rest],
    and the busiest edge's share of all traversals as [hotspot_share]
    (skipped on traffic-free points). *)

val alerts : t -> alert list
(** Every alert so far, in emission order (chronological; within one
    point, field order). *)

val estimates : t -> estimate list
(** Current estimator state per series, sorted by series name. *)

val estimate : t -> series:string -> estimate option
(** Lookup by series name; accepts the fully-qualified name or, on a
    prefixed monitor, the unprefixed one. *)

val health : t -> verdict
(** [Steady] when no alerts; otherwise [Degrading] carrying the alerts
    on degrading signals if any exist, else [Drifting] carrying all. *)

val verdict_name : verdict -> string
(** ["steady"], ["drifting"] or ["degrading"]. *)

val kind_name : kind -> string
(** ["cusum_up"], ["cusum_down"], ["page_hinkley_up"],
    ["page_hinkley_down"] — the wire names in {!Sink.Alert} events. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val emit : t -> (Sink.event -> unit) -> unit
(** Streams {!alerts}, in order, as [Sink.Alert] events named
    ["monitor.alert"]. *)
