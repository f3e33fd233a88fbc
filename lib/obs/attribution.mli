(** Per-edge load attribution: explain every edge's (and bus's) load.

    Congestion — the maximum relative load over edges and buses — is the
    objective everything in this repo optimizes, but a scalar says
    nothing about {e why} an edge is hot. An attribution table
    decomposes each edge's absolute load into [(object, component)]
    cells, where the component is one of Section 1.1's three load
    sources ({!Placement.component}): read traffic on a leaf→server
    path, write traffic on the same path, or the write broadcast over
    the copy set's Steiner tree.

    A table is built in one shot by {!of_placement}, a pass over
    {!Placement.iter_object_load_components_scratch}; {!of_loads} runs
    the same pass over a load engine's copy sets and assignments.

    Invariants: {!totals} equals [Placement.edge_loads] of the
    attributed placement, {!congestion_value} equals
    [Placement.congestion], and summing {!edge_contributions} per edge
    reproduces {!edge_total} exactly.

    Sites are rated by [Placement.rank_sites] on one
    [Placement.congestion] of the totals, the evaluator's own scan, so
    hotspots, bus totals and the congestion value cannot drift from it.

    [hbn_cli explain] reads tables and renders them ({!to_json},
    {!to_dot} or a text table); the serving tier ranks its hot objects
    from the load engine and builds no table. Traces carry no
    attribution cells. *)

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
    {!Placement.iter_object_load_components_scratch}. *)

val of_loads : Loads.t -> t
(** {!of_placement} of a load engine's current state: each object's copy
    set ([Loads.copies]) with every requesting leaf assigned its
    [Loads.server]. Objects with requests need not hold copies yet —
    objects without copies contribute nothing, matching the engine's
    zero loads for them. *)

val attach : Loads.t -> t
(** An alias of {!of_loads}, kept only because the end-to-end benchmark
    probe ([bench/e2e/workloads.ml]) calls it by this name. *)

(** {1 Per-edge and per-bus lookup} *)

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
    integral), read from the table's [Placement.congestion.bus_loads2]. *)

val bus_contributions : t -> bus:int -> contribution list
(** Contributions summed over the bus's incident edges, in the same
    doubled units as {!bus_total2}, ordered as
    {!edge_contributions}. *)

(** {1 Hotspots} *)

type site = Placement.site

val hotspots : t -> k:int -> (site * float) list
(** The [k] hottest sites, relative load descending
    ([Placement.rank_sites]): ties order edges before buses and lower ids
    first, so the head is the evaluator's [bottleneck]. *)

val congestion_value : t -> float
(** The congestion of the attributed state — bit-identical to
    [Placement.congestion] of the placement the table attributes. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Same tree shape and exactly the same nonzero cells. *)

(** {1 Export} *)

val to_json : ?k:int -> t -> string
(** A standalone JSON document ([hbn.explain/v1]): congestion, then the
    [k] (default: all) hottest sites with their contributor lists. *)

val to_dot : t -> string
(** Graphviz rendering of the network with edges heat-colored by
    relative load (gray→red against the hottest site) and labeled with
    their absolute loads; buses are filled on the same scale. *)
