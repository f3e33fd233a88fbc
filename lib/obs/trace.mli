(** The global tracer: hierarchical spans, point events, and metric
    shortcuts, all gated on one flag.

    Tracing is {e off} by default: no sink is installed, {!enabled}
    returns [false], and every entry point below reduces to a single
    branch on that flag — no allocation, no clock read, no sink code.
    Instrumented call sites guard attribute construction themselves:

    {[
      let sp = Trace.span "strategy.deletion" in
      (* ... work ... *)
      if Trace.enabled () then
        Trace.finish sp ~attrs:[ ("deletions", Sink.Int d) ]
    ]}

    (with tracing off, [span] returns the shared {!none} handle and the
    [finish] call is skipped entirely, so the attribute list is never
    built). Durations come from the monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)] via bechamel's stub), so they are
    immune to wall-clock adjustments.

    Span ids start at 1 and reset whenever a sink is (un)installed, so
    traces of a deterministic program are byte-identical run to run.

    The tracer is domain-safe: ids, the span stack and sink emission are
    guarded by one mutex, and ids are allocated under the lock in call
    order. [Hbn_exec] pipelines keep their determinism contract by
    emitting spans only from the sequential merge phases — the fixed
    allocation order then makes traces byte-identical at any job count —
    but a span opened from a pool worker is merely serialized (and
    parented to the innermost open span at that moment), never a data
    race. The [enabled] fast path is a lock-free read; installing a sink
    must happen before instrumented work is fanned out. *)

type span
(** A handle for an open span. *)

val none : span
(** The disabled-tracer handle; finishing it is a no-op. *)

val enabled : unit -> bool
(** [true] iff a sink is installed. Instrumentation guards any work
    beyond fixed function calls behind this flag. *)

val set_sink : Sink.t option -> unit
(** Installs (or with [None] removes) the sink, flushing the previous
    one and resetting span ids and the span stack. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] installed, then flushes [s] and
    restores the previous tracer state (even on exceptions). *)

val span : ?attrs:(string * Sink.value) list -> string -> span
(** Opens a span: emits [Span_start] (parented to the innermost open
    span) and records the start time. Returns {!none} when disabled. *)

val finish : ?attrs:(string * Sink.value) list -> span -> unit
(** Closes the span: emits [Span_end] with the monotonic duration.
    Spans are expected to close innermost-first; finishing out of order
    is tolerated (the span is removed from wherever it sits on the
    stack). No-op on {!none}. *)

val elapsed_ms : span -> float
(** Milliseconds since the span opened, on the clock its duration will
    use; [0.] for {!none}. For a gauge that reports a span's own length
    while the span is still open. *)

val event : ?attrs:(string * Sink.value) list -> string -> unit
(** Emits a point event inside the innermost open span. *)

val emit : Sink.event -> unit
(** Emits a pre-built event into the installed sink — the escape hatch
    for structured payloads the helpers above don't build, such as the
    [Fault] events of a [Runtime.run] under a fault plan. An event whose
    [parent] is [0] is re-parented to the innermost open span. No-op when
    disabled; callers guard the event construction behind {!enabled}
    themselves. *)

val count : ?by:int -> string -> unit
(** Bumps the named counter in {!Metrics.global}. Counters are
    aggregates: they appear in a trace only when the driver dumps a
    snapshot ({!Metrics.emit}), not per bump. No-op when disabled. *)

val gauge : string -> float -> unit
(** Streams one [Gauge] event. Gauges are time-varying and the
    per-sample history is the point, so no registry keeps them: the
    trace holds each sample exactly once. No-op when disabled. *)

val flush : unit -> unit
(** Flushes the installed sink, if any. *)
