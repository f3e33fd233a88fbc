(** Store-and-forward packet simulator for hierarchical bus networks.

    The paper motivates congestion as the objective because network
    throughput is governed by it (its [8], an experimental SPAA'99 study
    on SCI clusters, shows application run time tracking the congestion of
    the data management strategy). The authors' hardware is not available,
    so this module substitutes a synchronous store-and-forward simulator
    of the same tree-of-buses model — experiment E10 uses it to reproduce
    the qualitative claim on synthetic traffic (see DESIGN.md §4).

    Traffic: every read request becomes a packet traversing the unique
    path from the requesting processor to its reference copy (SCI
    request-response transactions collapse into one packet, exactly as in
    the paper's Figure 1→2 argument); every write becomes a packet to the
    reference copy followed by a multicast over the Steiner tree of the
    copy set, whose first hops wait for the request to arrive.

    Mechanics: per round, an edge [e] transmits at most [b(e)] packets and
    the packet-hops on edges incident to a bus [B] are limited to
    [2·b(B)]. The factor 2 is paper-derived, not a fudge: the paper's
    bus load is [L(B) = (Σ_{e incident to B} L(e)) / (2·b(B))] — a
    message crossing a bus occupies two of its incident edges (it enters
    on one and leaves on the other), so a bus of bandwidth [b(B)] that
    forwards [b(B)] messages per round performs [2·b(B)] packet-hops on
    its incident edges. Capping at [1·b(B)] packet-hops would halve the
    simulated bus throughput relative to the load definition the
    congestion objective optimizes, skewing the congestion→makespan
    correspondence the simulator exists to measure. The unit test
    [bus capacity: the 2·b(B) cap permits full pipelining] pins the
    constant. Scheduling is greedy, deterministic and first in, first
    out: hops enter the waiting queue in index order as they become
    ready, and every round serves them in entry order, granting each hop
    whose edge and bus endpoints still have capacity. Every transmission
    moves one hop per round (store-and-forward). With all bandwidths 1
    this is the standard [Ω(congestion + dilation)] routing regime.
    Other work-conserving orders (round-robin, newest first) are not
    implemented here: the whole-queue scan [Hbn_ref.Sim_ref]
    (test/ref/sim_ref.ml, linked by the tests and benchmarks only) runs
    them, and experiment E16 compares their makespans with this one.

    The waiting hops sit in per-edge queues in entry order. A binary
    heap of the queue heads, keyed by entry order, merges them. A
    round's budgets only fall, so the hops an edge is granted are a
    prefix of its queue, and a refused hop changes nothing: a queue
    leaves the merge at its first refusal, and the grants come out in
    the order a scan of the whole queue would make them. A round costs
    its grants plus one refused head per waiting edge, each
    [O(log edges)], not one visit per waiting hop. Only the edges below
    their burst are refilled and only the buses the last round drew on
    are reset. The hops a round releases are sorted by hop index in one
    reused buffer with {!Hbn_util.Heap.sort_prefix}, and a granted hop's
    dependents go to the bucket of the round they become ready in,
    looked up once per round and latency class (one class per distinct
    link latency). Without [telemetry], a round's per-hop work calls no
    closure and allocates nothing beyond amortised buffer growth. A
    star whose single bus caps every edge still sends every waiting
    edge through the merge each round:
    [O(leaves · log leaves)] per round, however few hops the bus admits.

    Asynchrony: the round machine is a loop over ticks at whole virtual
    times, taken earliest first from a {!Hbn_util.Heap}. With a
    {!Hbn_event.Link.config} each tree level gets its own propagation
    delay and bandwidth: a granted hop occupies its edge's transmitter
    and arrives [bytes/B + D] virtual time later, per-edge service
    becomes a token bucket of [B] packets per tick (burstable to one
    tick's budget), and the allocator only wakes at ticks where work can
    exist. A granted hop's dependents become ready at the first whole
    time after the grant and at or after the arrival; past 2^53, where
    every float is whole, "after" is the next float up ([Float.succ]).
    Without a link — or under {!Hbn_event.Link.sync} (delay 1,
    infinite bandwidth) — every latency is exactly 1 tick and every
    budget equals the static caps, and the schedule is bit-identical to
    the synchronous engine above (DESIGN.md §14 states the equivalence;
    the test suite pins it).

    With [scale = 1] the simulator performs exactly one transmission per
    unit of analytic load, so its per-edge traffic equals
    {!Hbn_placement.Placement.edge_loads} — a consistency check the test
    suite exploits. *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type outcome = {
  makespan : int;
      (** allocator ticks executed — under the synchronous regime,
          rounds until every packet is delivered *)
  completion : float;
      (** virtual time at which the last hop finished its transit — the
          asynchronous makespan (0 with no traffic). Under the
          synchronous regime every hop takes exactly one tick, so the
          last grant at tick [makespan] lands at [makespan + 1]; with
          per-level links this is the quantity that varies with
          bandwidth asymmetry while [edge_traffic] (congestion) stays
          fixed *)
  packets : int;  (** messages injected (multicasts count once) *)
  transmissions : int;  (** total edge traversals *)
  edge_traffic : int array;  (** traversals per edge *)
  max_dilation : int;  (** longest dependency chain over all packets *)
}

val run :
  ?scale:int ->
  ?telemetry:Hbn_obs.Telemetry.t ->
  ?link:Hbn_event.Link.config ->
  Workload.t ->
  Placement.t ->
  outcome
(** Simulates the workload under the placement. [scale] divides all
    frequencies (rounding up) to bound simulation cost on large workloads;
    default 1.

    [link] gives every tree level its own delay and bandwidth (see
    {!Hbn_event.Link}); omitting it — or passing {!Hbn_event.Link.sync} —
    yields the synchronous store-and-forward schedule, bit for bit.
    The traffic itself ([packets], [transmissions], [edge_traffic],
    [max_dilation]) is a function of workload and placement alone and
    never varies with [link]; only the schedule ([makespan],
    [completion], telemetry) does.

    [telemetry] records one {!Hbn_obs.Telemetry} sample per simulated
    round into a fresh caller-owned collector: each hop transmitted in
    the round is one delivered send of one byte-unit over its edge
    (store-and-forward moves one packet one edge per round), nothing is
    ever dropped, and all nodes are live. The per-edge top-k series is
    the congestion-over-time profile of the schedule. Recording never
    changes the schedule; to watch it for drift, feed the collector to
    a {!Hbn_obs.Monitor} after the run.

    When {!Hbn_obs.Trace} is enabled the run is wrapped in a [sim.run]
    span with two children, [sim.build] (hop construction) and
    [sim.schedule] (the tick loop), every round streams the [sim.queue_depth] and
    [sim.round_transmissions] gauges (ready hops after the round;
    hops delivered in it), a final ["sim.outcome"] event records
    makespan/packets/transmissions/dilation, and the [sim.packets] /
    [sim.transmissions] counters are bumped. Tracing never changes the
    simulated schedule. *)

val lower_bound : Workload.t -> Placement.t -> outcome -> float
(** [max(congestion, dilation)] for the simulated traffic — no schedule
    can beat it; used to sanity-check simulator results. *)
