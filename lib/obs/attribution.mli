(** Per-edge load attribution: explain every edge's (and bus's) load.

    Congestion — the maximum relative load over edges and buses — is the
    objective everything in this repo optimizes, but a scalar says
    nothing about {e why} an edge is hot. An attribution table
    decomposes each edge's absolute load into [(object, component)]
    cells, where the component is one of Section 1.1's three load
    sources ({!Placement.component}): read traffic on a leaf→server
    path, write traffic on the same path, or the write broadcast over
    the copy set's Steiner tree.

    A table is built in one shot, from either of two sources that agree
    bit-for-bit on the same copy sets (integer cells, property-tested in
    [test/test_attribution.ml]):

    - {!of_placement} — a pass over
      {!Placement.iter_object_load_components};
    - {!of_loads} — a pass over a load engine's copy sets and
      assignments.

    Invariants: {!totals} equals [Placement.edge_loads] of the
    attributed placement, {!congestion_value} equals
    [Placement.congestion], and summing {!edge_contributions} per edge
    reproduces {!edge_total} exactly.

    Two consumers read tables: [hbn_cli explain], which renders them
    ({!to_json}, {!to_dot} or a text table), and the serving tier, which
    picks the objects to re-optimize from {!of_loads}'s {!hotspots}.
    Traces carry no attribution cells. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads

type t

type contribution = {
  obj : int;
  component : Placement.component;
  amount : int;  (** absolute load units; never 0 in returned lists *)
}

(** {1 Construction} *)

val of_placement : Workload.t -> Placement.t -> t
(** One-shot attribution of a placement, driven by
    {!Placement.iter_object_load_components}. *)

val of_loads : Loads.t -> t
(** One-shot attribution of a load engine's current state (copy sets and
    nearest-copy assignments), without requiring every requested object
    to hold copies yet — objects without copies contribute nothing,
    matching the engine's zero loads for them. *)

val attach : Loads.t -> t
(** An alias of {!of_loads}, kept only because the end-to-end benchmark
    probe ([bench/e2e/workloads.ml]) calls it by this name. *)

(** {1 Per-edge and per-bus lookup} *)

val tree : t -> Tree.t

val edge_total : t -> edge:int -> int
(** The edge's absolute load — the sum of its contributions. *)

val totals : t -> int array
(** All edge totals (a fresh copy), index = edge. *)

val edge_contributions : t -> edge:int -> contribution list
(** Nonzero cells of one edge, largest amount first (ties: lower object,
    then read < write < steiner). *)

val bus_total2 : t -> bus:int -> int
(** Twice the bus's absolute load: the sum of its incident edges' totals
    (the paper defines bus load as half that sum; doubling keeps it
    integral, mirroring [Placement.congestion.bus_loads2]). *)

val bus_contributions : t -> bus:int -> contribution list
(** Contributions summed over the bus's incident edges, in the same
    doubled units as {!bus_total2}, ordered as
    {!edge_contributions}. *)

(** {1 Hotspots} *)

type site = [ `Edge of int | `Bus of int ]

val site_relative : t -> site -> float
(** Relative load: edge total over edge bandwidth, or {!bus_total2} over
    twice the bus bandwidth — the same arithmetic as
    [Placement.congestion_of_edge_loads], so maxima are bit-identical. *)

val hotspots : t -> k:int -> (site * float) list
(** The [k] hottest sites, relative load descending; ties order edges
    before buses and lower ids first, matching the evaluator's argmax
    (so the head is its [bottleneck]). *)

val congestion_value : t -> float
(** The congestion of the attributed state — bit-identical to
    [Placement.congestion] of the placement the table attributes. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Same tree shape and exactly the same nonzero cells — the bit-for-bit
    agreement {!of_placement} and {!of_loads} keep on the same copy
    sets. *)

(** {1 Export} *)

val to_json : ?k:int -> t -> string
(** A standalone JSON document ([hbn.explain/v1]): congestion, then the
    [k] (default: all) hottest sites with their contributor lists. *)

val to_dot : t -> string
(** Graphviz rendering of the network with edges heat-colored by
    relative load (gray→red against the hottest site) and labeled with
    their absolute loads; buses are filled on the same scale. *)
