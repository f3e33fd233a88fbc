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

(* A copy serving [served > 2κ] requests splits into [served / κ]
   near-equal consecutive buckets of its groups, each in [κ, 2κ]; a group
   straddling two buckets gives its reads first. *)
let split groups ~served ~kappa =
  let parts = served / kappa in
  let base = served / parts and extra = served mod parts in
  let rec fill need bucket = function
    | g :: rest when need > 0 ->
      let w = Nibble.group_weight g in
      if w <= need then fill (need - w) (g :: bucket) rest
      else
        let reads = min g.Nibble.reads need in
        let writes = need - reads in
        ( { g with Nibble.reads; writes } :: bucket,
          { g with reads = g.reads - reads; writes = g.writes - writes }
          :: rest )
    | rest -> (bucket, rest)
  in
  let rec cut i groups buckets =
    if i = parts then List.rev buckets
    else
      let bucket, rest = fill (if i < extra then base + 1 else base) [] groups in
      cut (i + 1) rest (List.rev bucket :: buckets)
  in
  cut 0 groups []

(* Working memory, per slot [i] (the [i]-th node of [cs.nodes]):
   [cells.(i)] the requests it serves, own and absorbed, and
   [cells.(k + p)] the [p]-th slot of a BFS over T(x) from the gravity
   center; [acc] at its node its T(x) parent slot, then -1 for a
   survivor and -2 for a deleted gravity center; [queue.(i)] how many
   items (own leaves, absorbed children) it lists, then where they start
   in [cells], which ends up holding every slot's items back to back;
   [stack.(j)] the server of the [j]-th requesting leaf. *)
let run ?scratch w cs =
  let tree = Workload.tree w in
  let scratch =
    match scratch with
    | Some s -> s
    | None -> Flat.Scratch.create (Flat.of_tree tree)
  in
  let obj = cs.Nibble.obj in
  let kappa = Workload.write_contention w ~obj in
  if kappa <= 0 then invalid_arg "Deletion.run: kappa must be positive";
  if cs.Nibble.nodes = [] then invalid_arg "Deletion.run: empty copy set";
  let nodes = Array.of_list cs.Nibble.nodes in
  let k = Array.length nodes in
  Flat.Scratch.index scratch nodes;
  let slot_of v = Flat.Scratch.find scratch nodes v in
  let { Flat.Scratch.acc = par; queue = items; cells; stack = server; _ } =
    scratch
  in
  let gravity = cs.Nibble.gravity in
  let g = slot_of gravity in
  (* BFS order and T(x) parents: a copy's parent is its next hop towards
     the gravity center and comes before it, so the reversed order
     processes children first, which is all the counts need. *)
  par.(gravity) <- -1;
  cells.(k) <- g;
  let head = ref k and tail = ref (k + 1) in
  while !head < !tail do
    let i = cells.(!head) in
    incr head;
    let v = nodes.(i) in
    let nb = Tree.neighbors tree v in
    for a = 0 to Array.length nb - 1 do
      let u = fst nb.(a) in
      let j = slot_of u in
      if j >= 0 && j <> par.(v) then begin
        par.(u) <- i;
        cells.(!tail) <- j;
        incr tail
      end
    done
  done;
  let reached = !tail in
  Array.fill cells 0 k 0;
  Array.fill items 0 k 0;
  let j = ref 0 in
  Nibble.iter_servers scratch w cs nodes (fun leaf i ->
      server.(!j) <- i;
      incr j;
      cells.(i) <- cells.(i) + Workload.weight w ~obj leaf;
      items.(i) <- items.(i) + 1);
  (* Deepest level first: a copy serving fewer than κ requests hands
     them to its parent. *)
  let deletions = ref 0 in
  for p = reached - 1 downto k + 1 do
    let i = cells.(p) in
    let v = nodes.(i) in
    if cells.(i) < kappa then begin
      let up = par.(v) in
      cells.(up) <- cells.(up) + cells.(i);
      items.(up) <- items.(up) + 1;
      incr deletions
    end
    else par.(v) <- -1
  done;
  (* A deleted gravity center hands its requests to the nearest survivor:
     the first one a BFS from it meets. None is missing: the center
     serves everything when it is the last copy, and κ_x is at most the
     object's total weight. *)
  let host =
    if cells.(g) >= kappa then -1
    else begin
      let p = ref (k + 1) in
      while !p < reached && par.(nodes.(cells.(!p))) <> -1 do
        incr p
      done;
      if !p = reached then -1
      else begin
        par.(gravity) <- -2;
        incr deletions;
        cells.(!p)
      end
    end
  in
  (* Group each slot's items by a counting sort on [items], placed from
     the back: a slot lists its absorbed children in ascending slot
     order, then its own leaves in descending order. *)
  let total = ref 0 in
  for i = 0 to k - 1 do
    total := !total + items.(i);
    items.(i) <- !total
  done;
  let total = !total in
  let wf = Workload.flat w in
  let base = wf.Workload.Flat.req_off.(obj) in
  for r = base to wf.Workload.Flat.req_off.(obj + 1) - 1 do
    let i = server.(r - base) in
    items.(i) <- items.(i) - 1;
    cells.(items.(i)) <- wf.Workload.Flat.req_leaf.(r)
  done;
  for i = k - 1 downto 0 do
    let up = par.(nodes.(i)) in
    if up >= 0 then begin
      items.(up) <- items.(up) - 1;
      cells.(items.(up)) <- -1 - i
    end
  done;
  (* Group order is part of the result ([split] and the placement's
     assignments read it): reassigning a deleted copy puts its list,
     reversed, in front of its parent's, so with c_1 … c_m the deleted
     children in processing order (descending slot), L(v) = rev L(c_m)
     @ … @ rev L(c_1) @ own(v). [build i tail] is [L(i) @ tail] and
     [rev_build i tail] is [rev L(i) @ tail]; both cons each group once,
     from the back. *)
  let group leaf =
    {
      Nibble.leaf;
      reads = Workload.reads w ~obj leaf;
      writes = Workload.writes w ~obj leaf;
    }
  in
  let stop i = if i + 1 < k then items.(i + 1) else total in
  let rec build i tail =
    let t = ref tail in
    for p = stop i - 1 downto items.(i) do
      let x = cells.(p) in
      t := if x >= 0 then group x :: !t else rev_build (-1 - x) !t
    done;
    !t
  and rev_build i tail =
    let t = ref tail in
    for p = items.(i) to stop i - 1 do
      let x = cells.(p) in
      t := if x >= 0 then group x :: !t else build (-1 - x) !t
    done;
    !t
  in
  (* Survivors keep the ids of their slots; a copy serving more than 2κ
     becomes co-located clones numbered after every slot's id. *)
  let splits = ref 0 in
  let copies = ref [] in
  for i = 0 to k - 1 do
    let v = nodes.(i) in
    if par.(v) = -1 then begin
      let groups = build i [] in
      let groups = if i = host then rev_build g groups else groups in
      let make id groups = Copy.make ~id ~obj ~kappa ~node:v groups in
      let copy = make i groups in
      if copy.Copy.served <= 2 * kappa then copies := copy :: !copies
      else
        List.iteri
          (fun b bucket ->
            let id = if b = 0 then i else k + !splits in
            if b > 0 then incr splits;
            copies := make id bucket :: !copies)
          (split groups ~served:copy.Copy.served ~kappa)
    end
  done;
  {
    copies = List.rev !copies;
    deletions = !deletions;
    splits = !splits;
    ids_used = k + !splits;
  }
