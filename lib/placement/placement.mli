(** Placements of shared data objects and their induced loads.

    A placement fixes, per object [x], the set [P_x] of nodes holding
    copies and a (possibly split) reference-copy assignment: each
    processor's requests to [x] are served by nodes of [P_x]. The paper's
    model assigns one reference copy [c(P, x)] per processor; the
    extended-nibble strategy may split one processor's requests between
    co-located clones that the mapping step then moves apart, so the
    representation allows one processor's requests to be divided among
    servers.

    Loads follow Section 1.1 verbatim:
    - a read by [P] loads every edge on the path [P → c(P,x)] by 1;
    - a write by [P] loads the path [P → c(P,x)] and every edge of the
      Steiner tree connecting [P_x] by 1;
    - the load of a bus is half the sum of the loads of its incident
      edges; relative load divides by bandwidth; congestion is the maximum
      relative load over all edges and buses. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

(** One object's placement, as flat arrays. [copies] is [P_x], ascending
    and duplicate-free. The assignments are parallel arrays of one
    length, one slot per (processor, server) pair: slot [i] sends
    [reads.(i)] reads and [writes.(i)] writes of processor [leaf.(i)] to
    the copy on [server.(i)]. A processor whose requests are split among
    servers has one slot per server.

    Every array has exactly its length, with no slack, so two placements
    are equal under [=] when they hold the same copies and the same
    assignments in the same order. That order is part of the contract:
    {!Hbn_sim.Sim} builds its packets and the attribution tables read
    their contributions slot by slot. {!nearest} lists one slot per
    requesting processor, ascending; the extended-nibble strategy lists
    its copies' request groups copy by copy.

    The arrays are read-only once built: a producer may share one array
    between fields (a read-only object's copies, processors and servers
    can be the same array) or with the state it was built from
    ({!Hbn_loads.Loads.snapshot} shares the engine's requester arrays). *)
type obj_placement = {
  copies : int array;
  leaf : int array;  (** the requesting processor of each slot *)
  server : int array;  (** the node of [P_x] serving the slot *)
  reads : int array;
  writes : int array;
}

type t = obj_placement array
(** Indexed by object. *)

val empty : obj_placement
(** No copies and no assignments: an object without requests. *)

(** {1 Constructors} *)

val nearest : ?exec:Hbn_exec.Exec.t -> Workload.t -> copies:int list array -> t
(** [nearest w ~copies] assigns every requesting processor to its closest
    copy (ties to the lowest node id) — the reference-copy rule used by
    the nibble strategy. Raises [Invalid_argument] if an object with
    requests has no copies. One {!Hbn_tree.Flat.nearest_into} sweep per
    requested object: O(n + copies log copies) each, whatever the number
    of requesters and copies. [exec] fans the per-object assignment out
    over domains, one scratch per executor slot; results are identical
    at any job count. *)

val single : Workload.t -> (int * int) list -> t
(** [single w obj_to_node] places exactly one copy per object as listed
    (every object of [w] must appear exactly once) and assigns all
    requests to it. *)

val full_replication : Workload.t -> t
(** One copy on every processor; every processor serves itself (writes
    still pay the full Steiner tree). *)

(** {1 Inspection} *)

val copies : t -> obj:int -> int list
(** [P_x] as an ascending list. *)

val leaf_only : Tree.t -> t -> bool
(** All copies are on processors — required of hierarchical bus networks. *)

val validate : Workload.t -> t -> (unit, string) result
(** Checks that assignments exactly cover the workload's frequencies, that
    servers hold copies, that copy arrays are duplicate-free and that
    the assignment arrays have one length. The first problem found is
    the message. *)

(** {1 Loads and congestion} *)

(** A site is an edge or a bus: the places congestion rates. *)
type site = [ `Edge of int | `Bus of int ]

type congestion = {
  value : float;  (** the congestion [C] *)
  edge_loads : int array;  (** absolute load per edge *)
  bus_loads2 : int array;  (** per node, twice the bus load (integral) *)
  bottleneck : site;
      (** the first site in scan order ({!max_relative}) whose relative
          load is [value]; [`Edge 0] when nothing is loaded *)
}

val edge_loads : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> int array
(** Absolute load per edge, summed over objects: the fold of
    {!iter_object_load_components_scratch}, computed by endpoint
    differences ({!Hbn_tree.Flat.Diff}) — O(1) per assignment and
    O(copies log copies) per written object into one node array, then
    one O(n) subtree sum. With a parallel [exec] each executor slot
    records into its own array and the arrays are summed in slot order
    before the read-out — bit-identical to the sequential result. *)

(** The three ways Section 1.1 lets an object load an edge: read traffic
    along the path [P → c(P,x)], write traffic along the same path, and
    the write broadcast over the Steiner tree of the copy set [P_x].
    Attribution tables ({!Hbn_obs.Attribution}) decompose every edge's
    absolute load into [(object, component)] cells over exactly these. *)
type component = Read_path | Write_path | Write_steiner

val component_name : component -> string
(** ["read_path"], ["write_path"], ["write_steiner"] — the spelling used
    by JSONL [attribution] events and [hbn_cli explain --format json]. *)

val iter_object_load_components_scratch :
  Hbn_tree.Flat.t ->
  Hbn_tree.Flat.Scratch.t ->
  obj_placement ->
  (int -> component -> int -> unit) ->
  unit
(** [iter_object_load_components_scratch fl scratch op f] reports every
    elementary load contribution of one object as [f edge component
    amount]: for each assignment, the read and write request traffic
    along the leaf→server path (as separate [Read_path]/[Write_path]
    calls), then the write broadcast over the copy set's Steiner tree
    ([Write_steiner], with the object's total writes on every Steiner
    edge). Zero-amount components are skipped. The scratch is
    caller-owned and must belong to the calling domain, so hot loops
    allocate nothing. This defines the accounting edge by edge, for the
    callers that need each component (attribution tables);
    {!edge_loads} (of one object: [edge_loads w [| p.(obj) |]], which the
    certificates read) and the incremental engine ([Hbn_loads.Loads])
    compute the same sums by endpoint differences, and the tests check
    them against the fold of this stream. *)

val evaluate : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> congestion
(** Full congestion accounting. *)

val congestion : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> float
(** [= (evaluate w p).value]. *)

val total_load : Workload.t -> t -> int
(** Sum of all edge loads (the "total communication load" objective the
    paper contrasts congestion with). *)

val congestion_of_edge_loads : Tree.t -> int array -> congestion
(** Recomputes bus loads and congestion from raw edge loads (used by the
    exact solver which manipulates edge-load vectors directly). Value and
    bottleneck come from the {!max_relative} scan. *)

(** {1 Rating sites}

    Every congestion figure in the library — {!evaluate}, the load
    engine's [Hbn_loads.Loads.congestion], attribution tables and the
    serving tier's hot-object ranking — rates sites here, so they agree
    bit for bit. An edge's relative load is its load over its bandwidth;
    a bus's is its doubled load over twice its bandwidth. Sites are read
    in one scan order: edges by id, then buses in [Tree.buses] order. *)

val max_relative :
  Tree.t -> edge_loads:int array -> bus_loads2:int array -> float
(** The congestion of an edge-load array and the doubled bus loads that
    go with it: the maximum relative load over the sites in scan order,
    strict [>] so the first maximum wins (0 when nothing is loaded).
    O(n); allocates nothing but its result, so hill climbs can price
    every proposal with it. *)

val rank_sites : Tree.t -> congestion -> k:int -> (site * float) list
(** The [k] sites with the highest relative load, with that load: a
    stable sort of the scan order, so ties keep edges before buses and
    lower ids first, and the head is [bottleneck] with [value]. *)
