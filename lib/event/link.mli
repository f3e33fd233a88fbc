(** Per-level link delay and bandwidth for tree-of-buses networks.

    The minissf netsim exemplar parameterizes a hierarchical network as
    [L, N1 D1 B1 .. NL DL BL]: every level of the hierarchy has its own
    link delay and bandwidth. This module is that parameterization for
    our trees. A {!config} lists [(delay, bandwidth)] pairs root-down —
    the first clause describes the links incident to the root (level 1) —
    and a spec shorter than the tree extends its last clause to all
    deeper levels. Bandwidth is in message-bytes per virtual-time unit;
    [infinity] means transmission is instantaneous and only the
    propagation delay remains.

    Transmitting [bytes] over a level-[l] link costs
    [bytes / B_l + D_l] virtual time, and transmissions on one directed
    link serialize: a second message must wait for the first to clear
    the transmitter (the {!transmit} clock), which is where finite
    bandwidth turns into queueing backpressure.

    {!sync} — delay 1, infinite bandwidth on every level — is the
    distinguished configuration under which the packet simulator and
    the protocol runtime reproduce the synchronous round semantics bit
    for bit (every transmission arrives exactly one tick after it was
    sent; see DESIGN.md §14 for the equivalence statement and its
    test). *)

module Tree = Hbn_tree.Tree

type config

val v : (float * float) array -> config
(** [(delay, bandwidth)] per level, root-down. Raises [Invalid_argument]
    if empty, a delay is negative/NaN/infinite, a bandwidth is not
    positive (bandwidth [infinity] is allowed), or a level combines zero
    delay with infinite bandwidth — a zero-transit link would collapse
    the virtual-time axis. The array is copied. *)

val sync : config
(** Delay 1, bandwidth [infinity] on every level: the synchronous
    regime. *)

val is_sync : config -> bool

val num_levels : config -> int

val delay : config -> level:int -> float
(** Propagation delay of level [level] (levels start at 1; deeper levels
    than the config lists reuse its last clause). *)

val bandwidth : config -> level:int -> float

val of_spec : string -> (config, string) result
(** Parses the CLI grammar ["D1:B1,D2:B2,…"] — one [DELAY:BANDWIDTH]
    clause per level, root-down, split by {!Hbn_util.Text.clauses};
    bandwidth may be ["inf"]. The delay is finite and [>= 0], the
    bandwidth positive, and not both [0] and ["inf"]. An empty clause is
    an error, so is the empty spec. Errors name the offending clause by
    index and character offset, e.g.
    ["clause 2 at char 4: bad bandwidth \"x\" …"]. Never raises. *)

val to_spec : config -> string
(** Canonical spec; [of_spec (to_spec c)] reproduces [c]. *)

(** {1 Attached links} *)

type t
(** A config bound to a concrete tree: per-edge levels plus one
    busy-until clock per directed link. The clocks are mutable run
    state — attach a fresh value per run. *)

val attach : config -> Tree.t -> t

val config : t -> config

val edge_level : t -> int -> int
(** The level of an edge: the depth of its deeper endpoint under the
    canonical rooting, so root-incident edges are level 1. *)

val latency : t -> edge:int -> bytes:int -> float
(** Unloaded transit time [bytes / B + D] over [edge] — no
    serialization, the cost the packet simulator charges per hop. Under
    {!sync} this is exactly 1 for any size. *)

val transmit : t -> now:float -> edge:int -> src:int -> bytes:int -> float
(** Serialized transmission: the message starts when the directed link
    [(edge, src→)] is free (but not before [now]), occupies it for
    [bytes / B], and arrives one propagation delay later; returns the
    arrival time and advances the link's busy-until clock. Under {!sync}
    the clock never blocks and the result is [now +. 1]. Raises
    [Invalid_argument] if [src] is not an endpoint of [edge]. *)
