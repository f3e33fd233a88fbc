(** Online request sequences for the dynamic data management model.

    Section 1.3 of the paper discusses the dynamic companion of the static
    problem (from [MMVW97], its reference [10]): requests arrive one at a
    time with no knowledge of the future, and the strategy migrates and
    replicates copies online. This module represents request sequences and
    derives them from static workloads (so dynamic and static strategies
    can be compared on the same access statistics). *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

type kind = Read | Write

type t = { node : int; kind : kind }
(** One request, issued by a processor. *)

val of_workload :
  prng:Hbn_prng.Prng.t -> Workload.t -> obj:int -> t list
(** Expands the frequencies of one object into a uniformly shuffled
    request sequence ([h_r(v,x)] reads and [h_w(v,x)] writes per
    processor [v]). *)

val bursty :
  prng:Hbn_prng.Prng.t ->
  Workload.t ->
  obj:int ->
  burst:int ->
  t list
(** Like {!of_workload} but emits each processor's requests in bursts of
    up to [burst] consecutive requests — the locality-friendly regime
    where online replication pays off. *)

val phases :
  prng:Hbn_prng.Prng.t ->
  Tree.t ->
  readers:int list ->
  writer:int ->
  phase_length:int ->
  phases:int ->
  t list
(** Alternating read phases (all [readers] read [phase_length] times) and
    write phases (the [writer] writes [phase_length] times) — the
    adversarial pattern that separates static from dynamic management. *)
