(** Named counters and gauges.

    A registry is a mutable bag of metrics keyed by name: counters
    accumulate integer increments (per-object deletions, messages sent)
    and gauges record the last value observed (queue depths).

    {!global} is the default registry the {!Trace} convenience functions
    feed; tests create private registries with {!create}. Metrics are
    aggregates — they reach a {!Sink.t} only when {!emit} dumps a
    snapshot, unlike spans and point events which stream. *)

type t

val create : unit -> t
(** A fresh, empty registry. *)

val global : t
(** The process-wide registry used by {!Trace.count} / {!Trace.gauge}. *)

val incr : ?by:int -> t -> string -> unit
(** [incr ?by m name] adds [by] (default 1) to counter [name], creating
    it at 0 first if needed. *)

val set_gauge : t -> string -> float -> unit
(** Records the latest value of gauge [name]. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val gauges : t -> (string * float) list
(** All gauges (latest values), sorted by name. *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 when it was never incremented. *)

val reset : t -> unit
(** Drops every metric. *)

val emit : t -> Sink.t -> unit
(** Dumps a snapshot into the sink: one [Counter] event per counter (the
    accumulated total), then one [Gauge] per gauge, each sorted by name. *)
