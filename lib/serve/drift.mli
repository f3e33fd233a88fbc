(** Deterministic drifting-workload generators for the serving tier.

    A generator is a pure function [(seed, epoch) -> Workload.t]: rates
    come from the stateless, order-independent {!Hbn_prng.Prng.hash}, so
    the table for any epoch regenerates bit-identically regardless of
    which epochs were built before it — the property serve replay and
    [--jobs] byte-identity rest on. The shapes are the ROADMAP's three
    drift families plus a steady control:

    - [Steady]: rates independent of the epoch — the control that must
      trigger {e zero} re-optimizations.
    - [Diurnal]: every read rate scaled by a sinusoid of the epoch
      (period 8 epochs) — slow global drift.
    - [Flash_crowd]: steady background; during the 2 burst epochs of
      each 8-epoch cycle, a hash-chosen subset of leaves reads
      object 0 at a many-fold rate — sudden, localized, transient.
    - [Hotspot_migration]: the hot quarter of the object space
      concentrates its reads in one of four contiguous leaf regions; the
      home region advances every 4 epochs — the shape
      whose stale-placement penalty epoch re-optimization must recover. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

type kind = Steady | Diurnal | Flash_crowd | Hotspot_migration

val kind_name : kind -> string
(** ["steady"], ["diurnal"], ["flash_crowd"], ["hotspot_migration"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val all_kinds : kind list

type t

val create : kind -> seed:int -> tree:Tree.t -> objects:int -> rate:int -> t
(** A generator over the tree's leaves. [rate] (>= 1) scales the base
    per-(leaf, object) request rates; [objects] must be >= 1 and the
    tree must have at least one leaf. *)

val tree : t -> Tree.t

val workload : t -> epoch:int -> Workload.t
(** The epoch's request table — a pure function of (seed, kind, epoch);
    epochs may be generated in any order. *)

val slot_jitter : seed:int -> slot:int -> int
(** Deterministic per-slot wobble in [0..2], a hash of [(seed, slot)]
    with [slot] absolute — off-edge noise the serving loop adds to the
    sent/bytes series so the monitor sees realistic variance during
    warmup. It needs no generator, so a table replay reproduces the
    generator run's series byte for byte. *)
