module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Raw = Hbn_loads.Loads.Raw

type violation = {
  v_request : int;
  v_reason : string;
  v_set : int list;
}

type outcome = {
  edge_loads : int array;
  served : int;
  replications : int;
  migrations : int;
  contractions : int;
  max_copies : int;
  final_set : int list;
  violation : violation option;
}

(* The connected copy set is explicit ([in_set] + an [anchor] member);
   per-edge counters decide reconfiguration:
   - [read_credit e] in [0, repl_threshold]: crossing reads earn it,
     spanning writes burn it (replicate at the top, contract at zero);
   - [migr_child]/[migr_parent e]: crossing writes pushing the copies
     towards that side (migrate the whole set across at
     [migr_threshold]); writes served on the copies' side reset the
     opposite pressure. *)
type state = {
  tree : Tree.t;
  fl : Flat.t;  (* O(1) LCA over the canonical rooting *)
  size : int;  (* object size: transfer cost per edge, cf. [12] *)
  repl_threshold : int;
  migr_threshold : int;
  in_set : bool array;
  read_credit : int array;
  migr_child : int array;
  migr_parent : int array;
  loads : Raw.t;  (* running request loads, maintained through the engine *)
  below : int array;  (* below.(e) = child endpoint of e *)
  mutable anchor : int;
  mutable set_size : int;
  mutable replications : int;
  mutable migrations : int;
  mutable contractions : int;
  mutable max_copies : int;
}

(* Path from [v] to the copy set as a node list [v; ...; u] with [u] the
   first member; [v] alone if it is a member. Uses the anchor: the set is
   connected and contains it, so the path v -> anchor enters the set once. *)
let path_to_set st v =
  if st.in_set.(v) then [ v ]
  else begin
    let r = st.fl.Flat.r in
    let a = Flat.lca st.fl v st.anchor in
    let climb x stop =
      let rec go x acc =
        if x = stop then List.rev acc else go r.Tree.parent.(x) (x :: acc)
      in
      go x []
    in
    let nodes = climb v a @ (a :: List.rev (climb st.anchor a)) in
    let rec take acc = function
      | [] -> List.rev acc
      | x :: rest ->
        if st.in_set.(x) then List.rev (x :: acc) else take (x :: acc) rest
    in
    take [] nodes
  end

let edge_between st a b =
  let r = st.fl.Flat.r in
  if r.Tree.parent.(a) = b then r.Tree.parent_edge.(a)
  else if r.Tree.parent.(b) = a then r.Tree.parent_edge.(b)
  else invalid_arg "Online.edge_between: nodes not adjacent"

(* The side of [v] for edge [e]'s migration counter: [v] is on the child
   side iff the child endpoint [c] is an ancestor-or-self of [v]. *)
let migr_counter_towards st e v =
  let c = st.below.(e) in
  if Flat.lca st.fl c v = c then (st.migr_child, st.migr_parent)
  else (st.migr_parent, st.migr_child)

let add_node st v =
  if not st.in_set.(v) then begin
    st.in_set.(v) <- true;
    st.set_size <- st.set_size + 1;
    if st.set_size > st.max_copies then st.max_copies <- st.set_size
  end

let internal_edges st =
  let out = ref [] in
  for e = 0 to Tree.num_edges st.tree - 1 do
    let u, v = Tree.edge_endpoints st.tree e in
    if st.in_set.(u) && st.in_set.(v) then out := e :: !out
  done;
  !out

(* Drop members unreachable from [keep] across zero-credit internal
   edges; reset the counters of edges that stop being internal. *)
let contract st ~keep =
  let reachable = Array.make (Tree.n st.tree) false in
  let rec dfs v =
    reachable.(v) <- true;
    Array.iter
      (fun (u, e) ->
        if st.in_set.(u) && (not reachable.(u)) && st.read_credit.(e) > 0 then
          dfs u)
      (Tree.neighbors st.tree v)
  in
  dfs keep;
  for v = 0 to Tree.n st.tree - 1 do
    if st.in_set.(v) && not reachable.(v) then begin
      st.in_set.(v) <- false;
      st.set_size <- st.set_size - 1;
      st.contractions <- st.contractions + 1
    end
  done;
  st.anchor <- keep

let consecutive_pairs nodes =
  let rec go = function
    | a :: (b :: _ as rest) -> (a, b) :: go rest
    | [ _ ] | [] -> []
  in
  go nodes

let serve st (req : Request.t) =
  let v = req.Request.node in
  let path = path_to_set st v in
  let u = List.nth path (List.length path - 1) in
  let path_edges =
    List.map (fun (a, b) -> edge_between st a b) (consecutive_pairs path)
  in
  match req.Request.kind with
  | Request.Read ->
    (* Crossing loads and credits. *)
    List.iter
      (fun e ->
        Raw.add st.loads e 1;
        st.read_credit.(e) <-
          min st.repl_threshold (st.read_credit.(e) + 1))
      path_edges;
    (* Expansion crawl from the boundary towards the reader. *)
    let rec crawl = function
      | a :: (b :: _ as rest) when st.in_set.(a) && not st.in_set.(b) ->
        let e = edge_between st a b in
        if st.read_credit.(e) >= st.repl_threshold then begin
          add_node st b;
          Raw.add st.loads e st.size;
          st.replications <- st.replications + 1;
          st.read_credit.(e) <- st.repl_threshold;
          crawl rest
        end
      | _ :: _ | [] -> ()
    in
    crawl (List.rev path)
  | Request.Write ->
    let internal = internal_edges st in
    (* Serve: request to the nearest copy plus the update broadcast. *)
    List.iter (fun e -> Raw.add st.loads e 1) path_edges;
    List.iter (fun e -> Raw.add st.loads e 1) internal;
    (* Crossing writes build migration pressure towards the writer. *)
    List.iter
      (fun e ->
        let towards, away = migr_counter_towards st e v in
        towards.(e) <- min st.migr_threshold (towards.(e) + 1);
        away.(e) <- 0)
      path_edges;
    (* Writes served on the copies' side renew their claim: every edge
       that is neither crossed nor spanned sees a local write. *)
    let on_path = Array.make (max 1 (Tree.num_edges st.tree)) false in
    List.iter (fun e -> on_path.(e) <- true) path_edges;
    let is_internal = Array.make (max 1 (Tree.num_edges st.tree)) false in
    List.iter (fun e -> is_internal.(e) <- true) internal;
    for e = 0 to Tree.num_edges st.tree - 1 do
      if (not on_path.(e)) && not is_internal.(e) then begin
        st.migr_child.(e) <- 0;
        st.migr_parent.(e) <- 0
      end
    done;
    (* Spanning writes burn read credit; contract at zero. *)
    let keep = if st.in_set.(v) then v else u in
    let zeroed = ref false in
    List.iter
      (fun e ->
        st.read_credit.(e) <- max 0 (st.read_credit.(e) - 1);
        if st.read_credit.(e) = 0 then zeroed := true)
      internal;
    if !zeroed then contract st ~keep else st.anchor <- keep;
    (* Migration cascade: while the boundary edge towards the writer has
       full pressure, the whole set moves across it. *)
    if not st.in_set.(v) then begin
      let rec cascade = function
        | a :: (b :: _ as rest) when st.in_set.(a) && not st.in_set.(b) ->
          let e = edge_between st a b in
          let towards, _ = migr_counter_towards st e v in
          if towards.(e) >= st.migr_threshold then begin
            (* Collapse the set to the far endpoint. *)
            Array.fill st.in_set 0 (Array.length st.in_set) false;
            st.set_size <- 0;
            add_node st b;
            st.anchor <- b;
            Raw.add st.loads e st.size;
            st.migrations <- st.migrations + 1;
            st.migr_child.(e) <- 0;
            st.migr_parent.(e) <- 0;
            st.read_credit.(e) <- 0;
            cascade rest
          end
        | _ :: _ | [] -> ()
      in
      cascade (List.rev path)
    end

(* The invariants the per-edge automaton maintains by construction. A
   breach is a bug, but one the caller chooses how to absorb: the result
   carries the reason and the offending copy set instead of raising. *)
let check_consistent st =
  let members =
    List.filter (fun v -> st.in_set.(v)) (List.init (Tree.n st.tree) Fun.id)
  in
  if members = [] then Error ("empty copy set", members)
  else if not st.in_set.(st.anchor) then
    Error ("anchor left the set", members)
  else if List.length members <> st.set_size then
    Error ("size accounting drifted", members)
  else if not (Hbn_nibble.Nibble.is_connected st.tree members) then
    Error ("copy set disconnected", members)
  else Ok members

let run ?(size = 1) ?threshold ?(validate = false) tree ~initial reqs =
  if size < 1 then invalid_arg "Online.run: size must be >= 1";
  let threshold = match threshold with Some t -> t | None -> size in
  if threshold < 1 then invalid_arg "Online.run: threshold must be >= 1";
  let m = max 1 (Tree.num_edges tree) in
  let fl = Flat.of_tree tree in
  let r = fl.Flat.r in
  let n = Tree.n tree in
  let below = Array.make m (-1) in
  for v = 0 to n - 1 do
    if v <> r.Tree.root then below.(r.Tree.parent_edge.(v)) <- v
  done;
  let st =
    {
      tree;
      fl;
      size;
      repl_threshold = threshold;
      migr_threshold = 2 * threshold;
      in_set = Array.make n false;
      read_credit = Array.make m 0;
      migr_child = Array.make m 0;
      migr_parent = Array.make m 0;
      loads = Raw.create tree;
      below;
      anchor = initial;
      set_size = 0;
      replications = 0;
      migrations = 0;
      contractions = 0;
      max_copies = 1;
    }
  in
  add_node st initial;
  let served = ref 0 in
  let violation = ref None in
  (* Stop at the first invariant breach: the remaining requests would be
     served against a state the automaton no longer vouches for. *)
  (try
     List.iter
       (fun req ->
         serve st req;
         incr served;
         if validate then
           match check_consistent st with
           | Ok _ -> ()
           | Error (reason, set) ->
             violation :=
               Some { v_request = !served - 1; v_reason = reason; v_set = set };
             raise Exit)
       reqs
   with Exit -> ());
  {
    edge_loads = Raw.loads st.loads;
    served = !served;
    replications = st.replications;
    migrations = st.migrations;
    contractions = st.contractions;
    max_copies = st.max_copies;
    final_set =
      List.filter (fun v -> st.in_set.(v)) (List.init n Fun.id);
    violation = !violation;
  }
