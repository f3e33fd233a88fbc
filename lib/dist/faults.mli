(** Deterministic, seeded fault plans for the synchronous runtime.

    A plan describes everything that can go wrong in a {!Runtime.run}:

    - {b message drops}: every (round, edge, sender) triple is dropped
      independently with probability [drop] during rounds
      [1 .. drop_until], decided by a stateless hash of the plan seed —
      the schedule is a pure function, so queries in any order (and from
      any domain) agree bit-for-bit;
    - {b node crashes}: a crashed node does not execute its step function
      and receives nothing; its local state is frozen (crash-recovery
      with stable storage) and it resumes on restart;
    - {b edge outages}: every message crossing a cut edge is dropped for
      the duration of the window.

    All intervals are inclusive round ranges. Plans are plain data:
    building one performs no side effects, and the same plan replays the
    same faults on every run. Faults are an extension beyond the SPAA
    2000 model — the paper's network is perfectly synchronous and
    lossless — so the zero-fault path of the runtime is kept
    bit-identical and every fault is logged as an {!event}. *)

type kind =
  | Dropped of { edge : int; src : int; dst : int }
      (** a message crossing [edge] from [src] to [dst] was lost *)
  | Crashed of { node : int }
  | Restarted of { node : int }
  | Cut of { edge : int }  (** outage window opened *)
  | Restored of { edge : int }  (** outage window closed *)

type event = { round : int; kind : kind }
(** One logged fault occurrence. [round] is the runtime round in which
    the fault took effect (for [Dropped], the round the message was
    sent). *)

type plan

val none : plan
(** The empty plan: no drops, no crashes, no outages. Running under
    [none] is bit-identical to running without a plan. *)

val make :
  ?seed:int ->
  ?drop:float ->
  ?drop_until:int ->
  ?crashes:(int * int * int) list ->
  ?cuts:(int * int * int) list ->
  unit ->
  plan
(** [make ()] is {!none}. [drop] (default 0, must be in [\[0, 1\]]) is
    the per-message drop probability applied to rounds
    [1 .. drop_until] (default 64). [crashes] are
    [(node, from_round, to_round)] and [cuts] are
    [(edge, from_round, to_round)] inclusive windows; [to_round =
    max_int] means "forever". Raises [Invalid_argument] on malformed
    windows or probabilities (NaN included). *)

val of_spec : ?seed:int -> string -> (plan, string) result
(** Parses the CLI fault-spec grammar: comma-separated clauses

    {v
    drop=P           per-message drop probability in [0, 1]
    until=R          last round the drop schedule applies to (default 64)
    crash=N:A-B      node N is down for rounds A..B (B = "inf" allowed)
    cut=E:A-B        edge E is down for rounds A..B (B = "inf" allowed)
    v}

    e.g. ["drop=0.2,until=40,crash=3:5-15,cut=2:10-14"]. [seed]
    (default 0) keys the drop schedule. Clauses are split by
    {!Hbn_util.Text.clauses}; empty ones are dropped before the rest are
    numbered, so ["drop=0.1,,until=5"] is accepted. Errors name the
    offending clause by index and character offset, e.g.
    ["clause 2 at char 9: bad drop probability \"2.0\" …"]; [drop] and
    [until] may appear once. A spec with no clause is rejected — an
    explicitly fault-free plan is spelled ["drop=0"]. Never raises. *)

val to_spec : plan -> string
(** Renders a plan back into the {!of_spec} grammar (canonical clause
    order); [of_spec ~seed:(seed p) (to_spec p)] reproduces [p]. *)

val is_empty : plan -> bool

val seed : plan -> int

val quiet_after : plan -> int
(** The first round from which no node is (or will again be) crashed and
    no edge cut — the structural horizon after which silence implies
    termination. 0 for plans without crash or cut windows (drops need no
    horizon: they only affect messages actually sent). [max_int] when
    some window never closes. *)

(** {1 Queries} (pure; used by the runtime per round) *)

val drops : plan -> round:int -> edge:int -> src:int -> bool
(** Whether the message sent in [round] over [edge] by [src] is dropped
    by the drop schedule. *)

val node_down : plan -> round:int -> node:int -> bool

val edge_cut : plan -> round:int -> edge:int -> bool

(** {1 Virtual-time queries}

    Under a link model ({!Runtime.run} with [~link]) the runtime measures
    time on a continuous virtual axis whose integer ticks are the rounds
    of the synchronous engine. Drop and cut schedules are queried at the
    send round; only the target-down check uses the message's arrival
    time. Plans keep their round-window semantics on that axis: a window
    [A..B] covers the half-open virtual-time interval [(A-1, B]], so
    [round_of_time] is [ceil] and integer times land in their own round:
    the target-down check at arrival time [t] is
    [node_down p ~round:(round_of_time t)], which on the synchronous
    regime (all times integral) is the check at the arrival round. *)

val round_of_time : float -> int
(** [ceil time] as a round number ([max_int] on overflow). Raises
    [Invalid_argument] on NaN or negative times. *)

(** {1 Rendering} *)

val sink_event : event -> Hbn_obs.Sink.event
(** The [Fault] observability event for one log entry (name
    ["runtime.fault"]), ready for {!Hbn_obs.Trace.emit}. *)
