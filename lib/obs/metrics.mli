(** Named counters.

    A registry is a mutable bag of counters keyed by name, each
    accumulating integer increments (per-object deletions, messages
    sent). Gauges are not kept here: {!Trace.gauge} streams every sample
    as it is taken.

    {!global} is the default registry {!Trace.count} feeds; tests create
    private registries with {!create}. Counters are aggregates — they
    reach a {!Sink.t} only when {!emit} dumps a snapshot, unlike spans,
    point events and gauges, which stream. *)

type t

val create : unit -> t
(** A fresh, empty registry. *)

val global : t
(** The process-wide registry used by {!Trace.count}. *)

val incr : ?by:int -> t -> string -> unit
(** [incr ?by m name] adds [by] (default 1) to counter [name], creating
    it at 0 first if needed. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 when it was never incremented. *)

val reset : t -> unit
(** Drops every counter. *)

val emit : t -> Sink.t -> unit
(** Dumps a snapshot into the sink: one [Counter] event per counter (the
    accumulated total), sorted by name. *)
