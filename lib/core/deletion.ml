module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble

type outcome = {
  copies : Copy.t list;
  deletions : int;
  splits : int;
  ids_used : int;
}

let split_sizes ~served ~kappa =
  if kappa <= 0 then invalid_arg "Deletion.split_sizes: kappa must be positive";
  if served < kappa then invalid_arg "Deletion.split_sizes: served < kappa";
  let k = max 1 (served / kappa) in
  let base = served / k and extra = served mod k in
  List.init k (fun i -> if i < extra then base + 1 else base)

(* Cut a sequence of request groups into buckets of the given sizes,
   splitting a group across a bucket boundary when necessary (reads are
   consumed before writes, arbitrarily but deterministically). *)
let cut_groups groups sizes =
  let buckets = ref [] in
  let remaining = ref groups in
  List.iter
    (fun size ->
      let bucket = ref [] and need = ref size in
      while !need > 0 do
        match !remaining with
        | [] -> invalid_arg "Deletion.cut_groups: sizes exceed requests"
        | g :: rest ->
          let w = Nibble.group_weight g in
          if w = 0 then remaining := rest
          else if w <= !need then begin
            bucket := g :: !bucket;
            need := !need - w;
            remaining := rest
          end
          else begin
            let take_reads = min g.Nibble.reads !need in
            let take_writes = !need - take_reads in
            bucket :=
              { g with Nibble.reads = take_reads; writes = take_writes }
              :: !bucket;
            remaining :=
              {
                g with
                Nibble.reads = g.Nibble.reads - take_reads;
                writes = g.Nibble.writes - take_writes;
              }
              :: rest;
            need := 0
          end
      done;
      buckets := List.rev !bucket :: !buckets)
    sizes;
  List.rev !buckets

let run ?(first_id = 0) ?scratch w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let scratch =
    match scratch with Some s -> s | None -> Flat.Scratch.create fl
  in
  let kappa = Workload.write_contention w ~obj:cs.Nibble.obj in
  if kappa <= 0 then invalid_arg "Deletion.run: kappa must be positive";
  if cs.Nibble.nodes = [] then invalid_arg "Deletion.run: empty copy set";
  (* Ids are local to this run: [first_id], [first_id + 1], … in the order
     copies are created. The strategy driver renumbers per-object results
     into one global sequence at merge time, so the function stays pure
     (no shared counter) and can run on any domain. *)
  let next_id = ref first_id in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* The per-copy table is copy-set sized: slot [i] is the [i]-th node of
     [cs.nodes] (ascending), found through the scratch's sparse-set
     index. *)
  let groups = Nibble.served_groups ~scratch w cs in
  let nodes = Array.of_list cs.Nibble.nodes in
  Flat.Scratch.index scratch nodes;
  let slot_of v = Flat.Scratch.find scratch nodes v in
  let table =
    Array.init (Array.length nodes) (fun i ->
        Some
          (Copy.make ~id:(fresh ()) ~obj:cs.Nibble.obj ~kappa ~node:nodes.(i)
             groups.(i)))
  in
  (* Deepest level of T(x) first; the root (gravity center) comes last.
     A node's level is its distance from the gravity center; within a
     level higher ids come first. One int key per copy, sorted
     descending. *)
  let gravity = cs.Nibble.gravity in
  let n = fl.Flat.n in
  let order =
    Array.map (fun v -> (Flat.distance fl gravity v * n) + v) nodes
  in
  Array.sort (fun a b -> Int.compare b a) order;
  let deletions = ref 0 in
  let nearest_survivor () =
    (* BFS from the root of T(x) over T(x) itself, on the scratch's ring
       buffer and visit stamps. T(x) is connected and holds the root, so
       its nodes come in the order a BFS over the whole tree would reach
       them, and the first survivor is the same. *)
    scratch.Flat.Scratch.stamp <- scratch.Flat.Scratch.stamp + 1;
    let stamp = scratch.Flat.Scratch.stamp in
    let nstamp = scratch.Flat.Scratch.nstamp in
    let queue = scratch.Flat.Scratch.queue in
    let head = ref 0 and tail = ref 0 in
    queue.(!tail) <- gravity;
    incr tail;
    nstamp.(gravity) <- stamp;
    let found = ref None in
    while !found = None && !head < !tail do
      let v = queue.(!head) in
      incr head;
      match table.(slot_of v) with
      | Some c when v <> gravity -> found := Some c
      | Some _ | None ->
        Array.iter
          (fun (u, _) ->
            if nstamp.(u) <> stamp && slot_of u >= 0 then begin
              nstamp.(u) <- stamp;
              queue.(!tail) <- u;
              incr tail
            end)
          (Tree.neighbors tree v)
    done;
    !found
  in
  Array.iter
    (fun key ->
      let v = key mod n in
      let i = slot_of v in
      match table.(i) with
      | None -> ()
      | Some copy ->
        if copy.Copy.served < kappa then begin
          if v <> gravity then begin
            let p = slot_of (Flat.next_hop fl v gravity) in
            match if p >= 0 then table.(p) else None with
            | Some parent ->
              Copy.absorb parent ~from:copy;
              table.(i) <- None;
              incr deletions
            | None ->
              (* The component is connected and parents are processed after
                 children, so the parent copy still exists. *)
              assert false
          end
          else begin
            match nearest_survivor () with
            | Some c ->
              Copy.absorb c ~from:copy;
              table.(i) <- None;
              incr deletions
            | None ->
              (* The root is the last copy; it serves every request, and
                 total requests >= kappa, so it cannot be under-used. *)
              assert (copy.Copy.served >= kappa)
          end
        end)
    order;
  let splits = ref 0 in
  let copies = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some copy ->
        if copy.Copy.served > 2 * kappa then begin
          let sizes =
            split_sizes ~served:copy.Copy.served ~kappa
          in
          let buckets = cut_groups copy.Copy.groups sizes in
          (match buckets with
          | [] -> assert false
          | first :: rest ->
            copy.Copy.groups <- first;
            copy.Copy.served <-
              List.fold_left (fun a g -> a + Nibble.group_weight g) 0 first;
            copies := copy :: !copies;
            List.iter
              (fun bucket ->
                incr splits;
                copies :=
                  Copy.make ~id:(fresh ()) ~obj:cs.Nibble.obj ~kappa
                    ~node:nodes.(i) bucket
                  :: !copies)
              rest)
        end
        else copies := copy :: !copies)
    table;
  let copies = List.rev !copies in
  {
    copies;
    deletions = !deletions;
    splits = !splits;
    ids_used = !next_id - first_id;
  }
