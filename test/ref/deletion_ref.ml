(* Reference oracle for Step 2, the deletion algorithm, in the direct
   form the library ran before its count pass: served groups and the
   copy table are node-indexed arrays of size n, copies are mutable
   records that absorb their deleted children's lists, the processing
   order comes from sorting (distance, node) pairs, and a deleted
   gravity center looks for the nearest survivor by a BFS over the whole
   tree. Splitting has its own copy of the bucket rule. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy
module Deletion = Hbn_core.Deletion

(* Request groups by serving node, an n-array (empty lists off the copy
   set); each leaf goes to the first copy on its path to the center. *)
let served_groups w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let in_set = Array.make (Tree.n tree) false in
  List.iter (fun v -> in_set.(v) <- true) cs.Nibble.nodes;
  let out = Array.make (Tree.n tree) [] in
  let obj = cs.Nibble.obj in
  let rec first_copy v =
    if in_set.(v) then v else first_copy (Flat.next_hop fl v cs.Nibble.gravity)
  in
  List.iter
    (fun leaf ->
      let server = first_copy leaf in
      out.(server) <-
        {
          Nibble.leaf;
          reads = Workload.reads w ~obj leaf;
          writes = Workload.writes w ~obj leaf;
        }
        :: out.(server))
    (Workload.requesting_leaves w ~obj);
  out

let split_sizes ~served ~kappa =
  if kappa <= 0 then invalid_arg "Deletion_ref.split_sizes: kappa must be positive";
  if served < kappa then invalid_arg "Deletion_ref.split_sizes: served < kappa";
  let k = max 1 (served / kappa) in
  let base = served / k and extra = served mod k in
  List.init k (fun i -> if i < extra then base + 1 else base)

(* Cut a sequence of request groups into buckets of the given sizes,
   splitting a group across a bucket boundary when necessary (reads are
   consumed before writes). *)
let cut_groups groups sizes =
  let buckets = ref [] in
  let remaining = ref groups in
  List.iter
    (fun size ->
      let bucket = ref [] and need = ref size in
      while !need > 0 do
        match !remaining with
        | [] -> invalid_arg "cut_groups: sizes exceed requests"
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

(* One copy of the table. [chain] is the longest run of absorbs that
   ends here: 0 for a copy that absorbed nothing. *)
type copy = {
  id : int;
  node : int;
  mutable groups : Nibble.group list;
  mutable served : int;
  mutable chain : int;
}

(* What a run went through, for tests that must not pass vacuously. *)
type info = {
  gravity_deleted : bool;
  host_split : bool;  (* the survivor that took the center's requests split *)
  longest_chain : int;  (* most levels one request climbed *)
}

let absorb c ~from =
  c.groups <- List.rev_append from.groups c.groups;
  c.served <- c.served + from.served;
  c.chain <- max c.chain (from.chain + 1)

let deletion_with_info ?(first_id = 0) w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let n = Tree.n tree in
  let obj = cs.Nibble.obj in
  let kappa = Workload.write_contention w ~obj in
  let next_id = ref first_id in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let groups = served_groups w cs in
  let table = Array.make n None in
  List.iter
    (fun v ->
      table.(v) <-
        Some
          {
            id = fresh ();
            node = v;
            groups = groups.(v);
            served =
              List.fold_left (fun a g -> a + Nibble.group_weight g) 0 groups.(v);
            chain = 0;
          })
    cs.Nibble.nodes;
  let gravity = cs.Nibble.gravity in
  let order =
    List.map (fun v -> (Flat.distance fl gravity v, v)) cs.Nibble.nodes
    |> List.sort (fun (da, a) (db, b) ->
           if da <> db then Int.compare db da else Int.compare b a)
    |> List.map snd
  in
  let deletions = ref 0 and host = ref None in
  let nearest_survivor () =
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add gravity queue;
    seen.(gravity) <- true;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      match table.(v) with
      | Some c when v <> gravity -> found := Some c
      | Some _ | None ->
        Array.iter
          (fun (u, _) ->
            if not seen.(u) then begin
              seen.(u) <- true;
              Queue.add u queue
            end)
          (Tree.neighbors tree v)
    done;
    !found
  in
  List.iter
    (fun v ->
      match table.(v) with
      | Some copy when copy.served < kappa ->
        let into =
          if v <> gravity then table.(Flat.next_hop fl v gravity)
          else begin
            host := nearest_survivor ();
            !host
          end
        in
        Option.iter
          (fun p ->
            absorb p ~from:copy;
            table.(v) <- None;
            incr deletions)
          into
      | Some _ | None -> ())
    order;
  let splits = ref 0 and host_split = ref false in
  let copies = ref [] and longest_chain = ref 0 in
  let make id v groups = Copy.make ~id ~obj ~kappa ~node:v groups in
  Array.iteri
    (fun v slot ->
      match slot with
      | None -> ()
      | Some copy ->
        longest_chain := max !longest_chain copy.chain;
        if copy.served > 2 * kappa then begin
          (match !host with Some h when h == copy -> host_split := true | _ -> ());
          let sizes = split_sizes ~served:copy.served ~kappa in
          match cut_groups copy.groups sizes with
          | [] -> assert false
          | first :: rest ->
            copies := make copy.id v first :: !copies;
            List.iter
              (fun bucket ->
                incr splits;
                copies := make (fresh ()) v bucket :: !copies)
              rest
        end
        else copies := make copy.id v copy.groups :: !copies)
    table;
  ( {
      Deletion.copies = List.rev !copies;
      deletions = !deletions;
      splits = !splits;
      ids_used = !next_id - first_id;
    },
    {
      gravity_deleted = Option.is_some !host;
      host_split = !host_split;
      longest_chain = !longest_chain;
    } )

let deletion ?first_id w cs = fst (deletion_with_info ?first_id w cs)
