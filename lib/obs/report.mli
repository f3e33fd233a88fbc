(** Offline trace analytics: everything a JSONL trace can tell you,
    recomputed after the fact.

    A trace written by [--trace] (or a telemetry file written by
    [--telemetry]) is a stream of {!Sink} events. This module parses it
    back through {!Sink.of_json}, reconstructs the span tree from the
    [id]/[parent] links, and derives the analyses the live pipeline
    never computes: per-phase self vs. total time, the critical path,
    counter and gauge rollups, {!Sink.Series} time-series summaries, the
    hottest-edges-over-time profile, and fault tallies. Three renderers
    share the analysis: a human table, a [hbn.report/v1] JSON document,
    and Chrome trace-event JSON loadable in Perfetto ([chrome://tracing]),
    which turns a [place --trace] run into a browsable flame chart.

    Everything here is a pure function of the event list, so reports are
    deterministic and the golden tests can pin renderer output byte for
    byte. *)

type t
(** An analyzed trace. *)

val of_events : Sink.event list -> t
(** Analyzes an in-memory event stream (e.g. from {!Sink.memory}).
    Tolerant of partial traces: spans without a matching [Span_end]
    are dropped from duration accounting but keep their children. *)

val load : path:string -> (t, string) result
(** Reads a JSONL trace file. The first malformed line fails the whole
    load with [Error "path:N: explanation"] — a trace that does not
    round-trip is a bug worth failing loudly on, not skipping. The one
    exception is forward compatibility: a valid JSON line whose ["ev"]
    tag is a kind this binary does not know (a newer trace read by an
    older reader) is skipped and counted into {!unknown_events}. *)

val events : t -> Sink.event list
(** The parsed events, in file order. *)

val unknown_events : t -> int
(** Lines of unknown event kind {!load} skipped (0 for {!of_events});
    reported in the table and JSON rollups. *)

(** {1 Analyses} *)

type phase = {
  name : string;
  calls : int;
  total_ns : int64;  (** wall time inside spans of this name *)
  self_ns : int64;  (** [total_ns] minus time inside child spans *)
}

val phases : t -> phase list
(** Closed spans aggregated by name, total time descending (ties by
    name). *)

val critical_path : t -> (string * int64) list
(** The heaviest chain of nested spans: starting from the
    longest-duration root span, descend at every level into the child
    span with the largest duration. Each element is [(name,
    duration_ns)], outermost first; empty when the trace has no closed
    root span. *)

type series = {
  s_name : string;
  points : int;  (** Series events (per-edge entries counted each) *)
  first_round : int;
  last_round : int;
  first_time : float;  (** virtual time covered; = rounds on the sync axis *)
  last_time : float;
  total : int;  (** sum of point values *)
  peak : int;  (** largest point value *)
  peak_round : int;  (** round of the first peak *)
}

val series : t -> series list
(** {!Sink.Series} events aggregated by name, in name order. *)

type alert_summary = {
  al_series : string;
  al_kind : string;  (** detector wire name, e.g. ["cusum_up"] *)
  al_count : int;
  al_first_round : int;
  al_last_round : int;
  al_max_magnitude : float;
}

val alert_summaries : t -> alert_summary list
(** {!Sink.Alert} events aggregated by (series, kind), in that order. *)

val hottest_edges : ?top:int -> t -> (int * int * int array) array
(** Per-edge utilization over time, from [Series] events carrying
    [edge >= 0]: the [top] (default 5) edges by total traversals, as
    [(edge, total, per_bucket)] with the covered round range split into
    8 equal intervals, busiest first. *)

(** {1 Renderers} *)

val to_table : ?top:int -> t -> string
(** Human-readable report: phase table (total/self/mean), critical
    path, counters, gauges, series rollups, hottest edges over time,
    fault tallies. [top] (default 5) bounds the per-edge table. Empty
    sections are omitted. *)

val to_json : ?top:int -> t -> string
(** The same analyses as one [{"schema":"hbn.report/v1", ...}]
    document. *)

val to_chrome : t -> string
(** Chrome trace-event JSON ([{"traceEvents":[...]}]). Spans become
    complete ("X") events on pid 1 with a {e reconstructed} timeline:
    only durations are recorded in the trace, so each root span starts
    where the previous ended and children are laid out sequentially
    inside their parent — widths are real measured nanoseconds, offsets
    are synthetic. The [tid] is the emitting domain when the event
    carries the CLI's [domain] attribute. Series events become counter
    ("C") samples and faults instant ("i") events on pid 2, whose time
    axis is the runtime round. Load the file in Perfetto or
    [chrome://tracing]. *)

(** {1 Trace diffing}

    [diff ~base ~cur] compares two traces series by series, turning any
    committed trace into a regression baseline. Both sides are reduced
    the same way: totals/peaks straight from the {!Sink.Series} events
    (per-edge series keyed ["name[edge]"]), quantiles and alerts
    recomputed by feeding each trace's series — normalized to per-round
    rates — through a fresh default {!Monitor}. Diffing a trace against
    itself is therefore exactly clean: same events, same fold, same
    estimator state. *)

type series_cmp = {
  c_name : string;
  base_points : int;  (** 0 when the series is absent on that side *)
  cur_points : int;
  base_total : int;
  cur_total : int;
  base_peak : int;
  cur_peak : int;
  base_p50 : float;  (** per-round rate, P-square estimate *)
  cur_p50 : float;
  base_p95 : float;
  cur_p95 : float;
}

type diff = {
  d_base_events : int;
  d_cur_events : int;
  d_series : series_cmp list;  (** union of both traces, key order *)
  d_changed : int;  (** series with any count/total/peak/quantile delta *)
  d_base_alerts : Monitor.alert list;
  d_cur_alerts : Monitor.alert list;
  d_new_alerts : Monitor.alert list;
      (** current alerts whose (series, kind) never fires in the
          baseline *)
  d_gone_alerts : Monitor.alert list;  (** the reverse *)
}

val diff : base:t -> cur:t -> diff

val diff_clean : diff -> bool
(** No changed series, no new alerts, no resolved alerts. *)

val diff_to_table : diff -> string
(** Human-readable comparison; changed series are starred, and the last
    line is a one-sentence verdict. *)

val diff_to_json : diff -> string
(** The same comparison as one [{"schema":"hbn.diff/v1", ...}]
    document. *)
