(** Synchronous message-passing execution on a tree network.

    The distributed claims of the paper assume the standard synchronous
    model: in every round, each node reads the messages its neighbors
    sent in the previous round, updates local state, and sends at most
    one message per incident edge. This module is that model, generic in
    the per-node state and message types; {!Dist_nibble} runs the actual
    distributed nibble computation on it and the tests compare every
    node's local decision with the sequential algorithm.

    The engine enforces the model: a node may only address its tree
    neighbors, and sending two messages over one edge in one round is an
    error (that is what pipelining has to work around). Neighbor
    membership is precomputed per node once per run, so validating a
    send is O(1) regardless of degree.

    A {!Faults.plan} degrades the network deterministically: scheduled
    messages are dropped, crashed nodes neither step nor receive (state
    frozen until restart), and cut edges lose everything crossing them.
    Every fault is logged. With no plan — or an empty one — the run is
    bit-identical to the fault-free engine.

    {!run} is one loop over the integer ticks of a virtual clock, and
    every message carries its arrival time: it waits in the transit
    bucket of the first tick at or after its arrival, and each bucket is
    delivered at the start of its tick. By default every delivery has
    latency exactly 1 — the classic synchronous semantics, round for
    round — while [~link] draws arrival times from a per-level
    {!Hbn_event.Link} model, so messages cross slow levels over several
    ticks and serialize on busy links. *)

module Tree = Hbn_tree.Tree

type ('state, 'msg) node_fn =
  round:int ->
  node:int ->
  'state ->
  inbox:(int * 'msg) list ->
  'state * (int * 'msg) list
(** One round of one node: consumes the inbox (sender, message) pairs
    from the previous round and returns the new state plus outgoing
    (neighbor, message) pairs. *)

type stats = {
  rounds : int;
  messages : int;
      (** sends attempted, including those a fault plan then dropped *)
  max_inbox : int;  (** largest inbox any node saw in one round *)
  max_node_messages : int;  (** most messages through a single node *)
}

type termination =
  | Quiescent  (** the protocol went silent — the normal ending *)
  | Round_limit
      (** [max_rounds] elapsed with traffic still flowing; the outcome
          carries the partial states and everything counted so far *)

type 'state outcome = {
  states : 'state array;
  stats : stats;
  termination : termination;
  faults : Faults.event list;  (** chronological fault log; [[]] without
                                   a plan *)
}

val run :
  ?max_rounds:int ->
  ?quiet_rounds:int ->
  ?faults:Faults.plan ->
  ?telemetry:Hbn_obs.Telemetry.t ->
  ?msg_bytes:('msg -> int) ->
  ?link:Hbn_event.Link.config ->
  Tree.t ->
  init:(int -> 'state) ->
  step:('state, 'msg) node_fn ->
  'state outcome
(** Runs rounds until quiescence or [max_rounds] (default 100_000;
    reaching it yields [termination = Round_limit] instead of raising,
    preserving states and stats). Raises [Invalid_argument] if a node
    addresses a non-neighbor or doubles up on an edge — those are
    protocol bugs, not runtime conditions.

    [quiet_rounds] (default 1) is the termination-detection window: the
    run is quiescent after that many consecutive rounds without a send.
    Protocols with retransmit timers must pass their timeout plus one,
    so a lull while every sender waits on a timer is not mistaken for
    completion; under a fault plan the window additionally cannot close
    before {!Faults.quiet_after}, since a crashed node may still restart
    and resume sending.

    [faults] applies a {!Faults.plan}: a message sent in round [r] is
    delivered iff its edge is not cut in [r], the drop schedule spares
    it in [r], and the target is not down in [r + 1]. Dropped messages
    still count into [stats.messages] (the send happened) but never
    reach an inbox. With [Faults.none] — or no plan — behavior, stats
    and traces are bit-identical to the fault-free engine.

    [telemetry] records one {!Hbn_obs.Telemetry} sample per round —
    sends, deliveries, drops, bytes, live nodes, per-edge traversals —
    into a caller-owned collector ([begin_round]/[end_round] are driven
    here; protocol hooks like retransmit counting fire from [step] in
    between). Pass a fresh collector per run: rounds restart at 1.
    [msg_bytes] sizes one message's payload for the byte series
    (default: 1 abstract unit per message). Recording is pure
    bookkeeping on the side; behavior, stats and traces are unchanged.
    To watch the run for drift, feed the collector to a
    {!Hbn_obs.Monitor} after it returns.

    When {!Hbn_obs.Trace} is enabled, the run emits the
    [runtime.messages] / [runtime.rounds] counters and a final
    [runtime.quiescent] (or [runtime.round_limit]) event; under a
    non-empty plan it additionally emits one [fault] event per log entry
    and a [runtime.dropped] counter when any message was lost.

    [link] runs the same protocol over a per-level link model (default:
    none, the synchronous model above). A message granted in round [r]
    over edge [e] transmits on the serialized directed link
    ({!Hbn_event.Link.transmit}, sized by [msg_bytes]) and is consumed
    at the first tick at or after its arrival — ticks remain the
    consecutive integers [1, 2, …], so round-counting timers inside
    [step] (e.g. stop-and-wait retransmission) work unchanged and
    [stats.rounds] is both the round count and the elapsed virtual time.
    Inboxes order deliveries by arrival time, ties by send order.

    Under [link = Hbn_event.Link.sync] every arrival is exactly one tick
    after the send and the outcome — states, stats, termination, fault
    log, telemetry — is bit-identical to the run without [link]; the
    test suite pins this equivalence over random topologies, workloads
    and fault plans.

    Fault windows keep their round semantics on the virtual-time axis
    (see {!Faults.round_of_time}): drop and cut schedules apply at the
    send round, and the target-down check moves from [round + 1] to the
    message's arrival time — the same instant under [sync]. Quiescence
    additionally requires an empty sky: silence with messages still in
    transit never terminates the run. *)
