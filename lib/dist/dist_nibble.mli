(** The nibble placement computed by the network itself.

    Runs the distributed nibble computation on the synchronous
    message-passing model of {!Runtime}: a pipelined convergecast of
    per-object subtree weights, a broadcast of totals and write
    contentions, a second convergecast electing the smallest-index center
    of gravity, and a final broadcast after which {e every node decides
    locally} whether it holds a copy of each object — exactly the
    protocol sketched in Section 3.1 of the paper ("the placement can be
    calculated efficiently by the processors of the tree network in a
    distributed fashion", with pipelining over the objects).

    The tests assert that the local decisions coincide with the
    sequential {!Hbn_nibble.Nibble.place_all} on every instance, and that
    the round count stays [O(|X| + height)] — the pipelined bound. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

val run : Workload.t -> int list array * Runtime.stats
(** [run w] executes the protocol; result [i] holds the nodes that
    decided to keep a copy of object [i] (ascending). *)

(** {1 Fault-hardened execution}

    {!run} assumes the synchronous model delivers every message. Under a
    {!Faults.plan} it would wedge (a lost [Sub] stalls the convergecast
    forever), so {!run_robust} wraps the identical protocol logic in a
    reliable link layer: per-edge stop-and-wait with piggybacked
    cumulative acknowledgements, retransmission after [timeout] silent
    rounds, and in-order exactly-once delivery to the protocol handlers.
    Crashed nodes resume from their frozen state on restart (the model's
    stand-in for stable storage) and re-initiate their convergecast
    contributions if the crash preempted round 1. *)

type robust_stats = {
  runtime : Runtime.stats;
  retransmissions : int;  (** frames re-sent after a timeout *)
  duplicates : int;  (** already-delivered frames received again *)
  pure_acks : int;  (** frames carrying only an acknowledgement *)
  undecided : int;  (** (node, object) pairs still open at the end *)
}

type outcome =
  | Complete of {
      placement : int list array;
      stats : robust_stats;
      log : Faults.event list;
    }
      (** Every node decided every object. Under bounded faults the
          placement equals the one {!run} computes on the pristine
          network — the tests and [simulate --faults] check it against
          the sequential nibble. *)
  | Degraded of {
      reason : [ `Round_limit | `Undecided ];
      partial : int list array;
      stats : robust_stats;
      log : Faults.event list;
    }
      (** The run ended without full agreement — the round budget ran
          out, or quiescence was reached with open decisions (a
          permanently crashed node). [partial] holds what was decided. *)

val run_robust :
  ?max_rounds:int ->
  ?timeout:int ->
  ?faults:Faults.plan ->
  ?telemetry:Hbn_obs.Telemetry.t ->
  ?link:Hbn_event.Link.config ->
  Workload.t ->
  outcome
(** [run_robust w] executes the hardened protocol under [faults]
    (default {!Faults.none}). [timeout] (default 4) is the retransmit
    interval in rounds; the quiescence window is [timeout + 1] so a lull
    while retransmit timers tick is not mistaken for completion. Never
    raises on faults — any ending is reported as an {!outcome}.
    [Invalid_argument] only for [timeout < 1].

    [telemetry] threads a fresh {!Hbn_obs.Telemetry} collector through
    the underlying {!Runtime.run}: per-round sends/deliveries/drops and
    per-edge traversals from the runtime, frame bytes from a sizer that
    charges a 16-byte link header plus the payload's fields, and
    retransmissions/duplicate-suppressions attributed to the round they
    occur in.

    [link] is handed to {!Runtime.run} as its link model, replacing the
    synchronous one: frames take [bytes/B + D] virtual time per their
    level's clause and serialize on busy links, while the stop-and-wait
    timers keep counting integer ticks, so [timeout] retains its
    meaning. Passing [Hbn_event.Link.sync] — or nothing — reproduces the
    synchronous run bit for bit. *)
