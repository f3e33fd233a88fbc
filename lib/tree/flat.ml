(* Iteration orders are part of the contract, not an accident: a path
   runs u up to the LCA, then down to v; a Steiner tree is emitted in
   ascending preorder of each edge's lower endpoint. The pipeline's
   outputs (loads, simulated schedules) are gated to be bit-identical,
   and they depend on these orders. *)

type t = {
  tree : Tree.t;
  r : Tree.rooted;
  ix : Tree.flat_index;
  n : int;
  m : int;
}

let of_tree tree =
  {
    tree;
    r = Tree.rooting tree;
    ix = Tree.flat_index tree;
    n = Tree.n tree;
    m = Tree.num_edges tree;
  }

module Scratch = struct
  type t = {
    mutable stamp : int;
    nstamp : int array;
    estamp : int array;
    acc : int array;
    stack : int array;
    mutable sp : int;
    queue : int array;
    slot : int array;
    cells : int array;
  }

  let create fl =
    {
      stamp = 0;
      nstamp = Array.make fl.n 0;
      estamp = Array.make (max 1 fl.m) 0;
      acc = Array.make fl.n 0;
      stack = Array.make (max 1 fl.m) 0;
      sp = 0;
      queue = Array.make fl.n 0;
      slot = Array.make fl.n 0;
      cells = Array.make (2 * fl.n) 0;
    }

  let index s nodes = Array.iteri (fun i v -> s.slot.(v) <- i) nodes

  let find s nodes v =
    let i = s.slot.(v) in
    if i >= 0 && i < Array.length nodes && nodes.(i) = v then i else -1
end

let lca fl u v = Tree.lca_flat fl.ix u v

let distance fl u v =
  let d = fl.r.Tree.depth in
  d.(u) + d.(v) - (2 * d.(lca fl u v))

let next_hop fl v g =
  let r = fl.r in
  if lca fl v g <> v then r.Tree.parent.(v)
  else begin
    (* g lies below v: the last child whose preorder block starts at or
       before g's position is the one containing it. *)
    let pos = fl.ix.Tree.pos and cs = r.Tree.children.(v) in
    let pg = pos.(g) in
    let lo = ref 0 and hi = ref (Array.length cs - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if pos.(cs.(mid)) <= pg then lo := mid else hi := mid - 1
    done;
    cs.(!lo)
  end

let iter_path_to_root fl v f =
  let r = fl.r in
  let x = ref v in
  while !x <> r.Tree.root do
    f r.Tree.parent_edge.(!x);
    x := r.Tree.parent.(!x)
  done

let iter_path fl (scratch : Scratch.t) u v f =
  if u <> v then begin
    let a = lca fl u v in
    let r = fl.r in
    (* u → lca, in walking order. *)
    let x = ref u in
    while !x <> a do
      f r.Tree.parent_edge.(!x);
      x := r.Tree.parent.(!x)
    done;
    (* lca → v: stack the climb from v, replay it reversed. *)
    let stack = scratch.Scratch.stack in
    let sp = ref 0 in
    let x = ref v in
    while !x <> a do
      stack.(!sp) <- r.Tree.parent_edge.(!x);
      incr sp;
      x := r.Tree.parent.(!x)
    done;
    for i = !sp - 1 downto 0 do
      f stack.(i)
    done
  end

let fold_path fl scratch u v ~init ~f =
  let acc = ref init in
  iter_path fl scratch u v (fun e -> acc := f !acc e);
  !acc

let iter_path_unordered fl u v f =
  if u <> v then begin
    let a = lca fl u v in
    let r = fl.r in
    let climb s =
      let x = ref s in
      while !x <> a do
        f r.Tree.parent_edge.(!x);
        x := r.Tree.parent.(!x)
      done
    in
    climb u;
    climb v
  end

let iter_steiner fl (scratch : Scratch.t) ~nodes f =
  scratch.Scratch.stamp <- scratch.Scratch.stamp + 1;
  let stamp = scratch.Scratch.stamp in
  let nstamp = scratch.Scratch.nstamp in
  let total = ref 0 in
  nodes (fun v ->
      if nstamp.(v) <> stamp then begin
        nstamp.(v) <- stamp;
        incr total
      end);
  if !total >= 2 then begin
    let r = fl.r in
    let acc = scratch.Scratch.acc in
    for v = 0 to fl.n - 1 do
      acc.(v) <- (if nstamp.(v) = stamp then 1 else 0)
    done;
    let pre = r.Tree.preorder and parent = r.Tree.parent in
    for i = fl.n - 1 downto 1 do
      let v = pre.(i) in
      acc.(parent.(v)) <- acc.(parent.(v)) + acc.(v)
    done;
    let total = !total in
    let parent_edge = r.Tree.parent_edge in
    for i = 1 to fl.n - 1 do
      let v = pre.(i) in
      if acc.(v) > 0 && acc.(v) < total then f parent_edge.(v)
    done
  end

let nearest_into fl (scratch : Scratch.t) ~copies =
  let n = fl.n and acc = scratch.Scratch.acc in
  Array.fill acc 0 n max_int;
  copies (fun c -> acc.(c) <- c);
  (* One edge adds [n] to a key: a lexicographic (distance, id) minimum.
     Children into parents gives each node its nearest copy below it;
     parents into children then adds the copies reached through the
     parent. [max_int] is "no copy yet" and never propagates. *)
  let pre = fl.r.Tree.preorder and parent = fl.r.Tree.parent in
  for i = n - 1 downto 1 do
    let v = pre.(i) in
    let k = acc.(v) in
    if k < max_int && k + n < acc.(parent.(v)) then acc.(parent.(v)) <- k + n
  done;
  for i = 1 to n - 1 do
    let v = pre.(i) in
    let k = acc.(parent.(v)) in
    if k < max_int && k + n < acc.(v) then acc.(v) <- k + n
  done

let subtree_sums_into fl (scratch : Scratch.t) ~src ~src_off =
  let acc = scratch.Scratch.acc in
  for v = 0 to fl.n - 1 do
    acc.(v) <- src.(src_off + v)
  done;
  let pre = fl.r.Tree.preorder and parent = fl.r.Tree.parent in
  for i = fl.n - 1 downto 1 do
    let v = pre.(i) in
    acc.(parent.(v)) <- acc.(parent.(v)) + acc.(v)
  done

module Diff = struct
  (* [a] on every u–v path edge, once subtree-summed. *)
  let pair fl d u v a =
    let c = lca fl u v in
    d.(u) <- d.(u) + a;
    d.(v) <- d.(v) + a;
    d.(c) <- d.(c) - (2 * a)

  let path fl d u v a = pair fl d u v (2 * a)

  (* The closed tour through the nodes in preorder crosses each Steiner
     edge once on the way down into the subtree below it and once on the
     way back out, and crosses no other edge: [a] per pair is [2a] per
     Steiner edge, the doubled amount. *)
  let steiner fl d ~nodes ~len a =
    if len >= 2 then begin
      let pos = fl.ix.Tree.pos and pre = fl.r.Tree.preorder in
      for i = 0 to len - 1 do
        nodes.(i) <- pos.(nodes.(i))
      done;
      Hbn_util.Heap.sort_prefix nodes len;
      for i = 0 to len - 1 do
        nodes.(i) <- pre.(nodes.(i))
      done;
      for i = 0 to len - 2 do
        pair fl d nodes.(i) nodes.(i + 1) a
      done;
      pair fl d nodes.(len - 1) nodes.(0) a
    end

  let edges_into fl d ~dst =
    let pre = fl.r.Tree.preorder
    and parent = fl.r.Tree.parent
    and parent_edge = fl.r.Tree.parent_edge in
    for i = fl.n - 1 downto 1 do
      let v = pre.(i) in
      let s = d.(v) in
      d.(parent.(v)) <- d.(parent.(v)) + s;
      dst.(parent_edge.(v)) <- s asr 1
    done
end

