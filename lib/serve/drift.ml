module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Prng = Hbn_prng.Prng

type kind = Steady | Diurnal | Flash_crowd | Hotspot_migration

let kind_name = function
  | Steady -> "steady"
  | Diurnal -> "diurnal"
  | Flash_crowd -> "flash_crowd"
  | Hotspot_migration -> "hotspot_migration"

let kind_of_name = function
  | "steady" -> Some Steady
  | "diurnal" -> Some Diurnal
  | "flash_crowd" -> Some Flash_crowd
  | "hotspot_migration" -> Some Hotspot_migration
  | _ -> None

let all_kinds = [ Steady; Diurnal; Flash_crowd; Hotspot_migration ]

type t = {
  kind : kind;
  seed : int;
  tree : Tree.t;
  leaves : int array;
  objects : int;
  rate : int;
}

let create kind ~seed ~tree ~objects ~rate =
  if objects < 1 then invalid_arg "Drift.create: objects must be >= 1";
  if rate < 1 then invalid_arg "Drift.create: rate must be >= 1";
  let leaves = Tree.leaves_array tree in
  if Array.length leaves = 0 then
    invalid_arg "Drift.create: tree has no leaves";
  { kind; seed; tree; leaves; objects; rate }

let tree t = t.tree

(* Epochs per sinusoid cycle, per flash-crowd cycle (the burst covers 2
   of them) and per hotspot region. *)
let diurnal_period = 8
let flash_period = 8
let migration_dwell = 4

(* Hash-stream tags: one namespace per rate family so streams never
   collide across uses of the same seed. *)
let tag_read = 0
let tag_write = 1
let tag_flash = 2
let tag_jitter = 3

let hash_mod ~seed tags m =
  if m <= 0 then 0
  else
    let r = Int64.to_int (Int64.rem (Prng.hash ~seed tags) (Int64.of_int m)) in
    if r < 0 then r + m else r

let hmod t tags m = hash_mod ~seed:t.seed tags m

(* Epoch-independent base rates: reads in [1, rate], sparse writes in
   [0, max 1 (rate/4)] on roughly a third of the (leaf, object) pairs —
   enough write traffic that full replication never wins outright. *)
let base_read t ~obj ~li = 1 + hmod t [ tag_read; obj; li ] t.rate

let base_write t ~obj ~li =
  if hmod t [ tag_write; obj; li; 0 ] 3 = 0 then
    hmod t [ tag_write; obj; li; 1 ] (max 1 (t.rate / 4)) + 1
  else 0

let scale_round f x =
  if x <= 0 then 0 else int_of_float (floor ((f *. float_of_int x) +. 0.5))

(* Hotspot regions: four contiguous blocks of the leaves array. *)
let region t li = 4 * li / Array.length t.leaves

let hot_objects t = max 1 (t.objects / 4)

let rates t ~epoch ~obj ~li =
  let r = base_read t ~obj ~li and w = base_write t ~obj ~li in
  match t.kind with
  | Steady -> (r, w)
  | Diurnal ->
    let phase =
      2.0 *. Float.pi *. float_of_int (epoch mod diurnal_period)
      /. float_of_int diurnal_period
    in
    (max 1 (scale_round (1.0 +. (0.75 *. sin phase)) r), w)
  | Flash_crowd ->
    let cycle = epoch / flash_period and pos = epoch mod flash_period in
    let bursting = pos = 4 || pos = 5 in
    if bursting && obj = 0 && hmod t [ tag_flash; cycle; li ] 10 < 3 then
      (r + (6 * t.rate), w)
    else (r, w)
  | Hotspot_migration ->
    let home = epoch / migration_dwell mod 4 in
    if obj < hot_objects t then
      if region t li = home then ((8 * t.rate) + r, w)
      else (max 1 (r / 4), w)
    else (r, w)

let workload t ~epoch =
  if epoch < 0 then invalid_arg "Drift.workload: negative epoch";
  let n = Tree.n t.tree in
  let reads = Array.make_matrix t.objects n 0 in
  let writes = Array.make_matrix t.objects n 0 in
  Array.iteri
    (fun li leaf ->
      for obj = 0 to t.objects - 1 do
        let r, w = rates t ~epoch ~obj ~li in
        reads.(obj).(leaf) <- r;
        writes.(obj).(leaf) <- w
      done)
    t.leaves;
  Workload.make t.tree ~reads ~writes

let slot_jitter ~seed ~slot =
  if slot < 0 then invalid_arg "Drift.slot_jitter: negative slot";
  hash_mod ~seed [ tag_jitter; slot ] 3
