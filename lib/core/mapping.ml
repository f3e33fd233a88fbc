module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Nibble = Hbn_nibble.Nibble
module Heap = Hbn_util.Heap
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

type state = {
  tree : Tree.t;
  tau_max : int;
  lacc_up : int array;
  lacc_down : int array;
  lmap_up : int array;
  lmap_down : int array;
  node_copies : Copy.t list array;
}

type stats = { tau_max : int; moves_up : int; moves_down : int; final : state }

type error =
  | No_free_edge of { node : int; copy : Copy.t }
  | Copy_on_bus of Copy.t

(* Ends a run early from inside the level loops; [run] turns it into an
   [Error]. *)
exception Stop of error

(* A serving path runs up from the copy to the LCA, then down to the
   requesting leaf. Each direction is recorded at its two ends: [+a] at
   the server and [-a] at the LCA for up, [+a] at the leaf and [-a] at
   the LCA for down, so one subtree sum at [v] is the load of [v]'s
   parent edge in that direction. *)
let basic_loads tree copies =
  let fl = Flat.of_tree tree in
  let n = fl.Flat.n in
  let du = Array.make n 0 and dd = Array.make n 0 in
  List.iter
    (fun c ->
      let server = c.Copy.node in
      List.iter
        (fun g ->
          let amount = Nibble.group_weight g and leaf = g.Nibble.leaf in
          if amount > 0 && server <> leaf then begin
            let a = Flat.lca fl server leaf in
            du.(server) <- du.(server) + amount;
            du.(a) <- du.(a) - amount;
            dd.(leaf) <- dd.(leaf) + amount;
            dd.(a) <- dd.(a) - amount
          end)
        c.Copy.groups)
    copies;
  let m = max 1 (Tree.num_edges tree) in
  let up = Array.make m 0 and down = Array.make m 0 in
  let r = fl.Flat.r in
  let pre = r.Tree.preorder
  and parent = r.Tree.parent
  and parent_edge = r.Tree.parent_edge in
  for i = n - 1 downto 1 do
    let v = pre.(i) and p = parent.(pre.(i)) in
    du.(p) <- du.(p) + du.(v);
    dd.(p) <- dd.(p) + dd.(v);
    up.(parent_edge.(v)) <- du.(v);
    down.(parent_edge.(v)) <- dd.(v)
  done;
  (up, down)

let check_invariant st =
  let tree = st.tree in
  let r = Tree.rooting tree in
  let problem = ref None in
  List.iter
    (fun v ->
      (* Outgoing edges of v: the upward direction of its parent edge plus
         the downward direction of each child edge; incoming: the mirror. *)
      let out = ref 0 and inc = ref 0 in
      if v <> r.Tree.root then begin
        let e = r.Tree.parent_edge.(v) in
        out := !out + st.lacc_up.(e) - st.lmap_up.(e);
        inc := !inc + st.lacc_down.(e) - st.lmap_down.(e)
      end;
      Array.iter
        (fun c ->
          let e = r.Tree.parent_edge.(c) in
          out := !out + st.lacc_down.(e) - st.lmap_down.(e);
          inc := !inc + st.lacc_up.(e) - st.lmap_up.(e))
        r.Tree.children.(v);
      (* Corrected form of Invariant 4.2 (see DESIGN.md): the paper's
         "+ 2 Σ s(c)" term is not preserved when a copy moves into v (the
         right side would change by s - κ >= 0); the preserved form uses
         Σ (s(c) + κ_x(c)), which movements change by exactly the same
         amount on both sides and which still implies Lemmas 4.1 and 4.6. *)
      let weight =
        List.fold_left (fun a c -> a + Copy.weight c) 0 st.node_copies.(v)
      in
      if !out < !inc + weight && !problem = None then
        problem :=
          Some
            (Printf.sprintf
               "invariant 4.2 violated at node %d: out=%d in=%d copies=%d" v
               !out !inc weight))
    (Tree.buses tree);
  match !problem with None -> Ok () | Some msg -> Error msg

let run ?on_round tree ~basic_up ~basic_down ~movable =
  let r = Tree.rooting tree in
  let m = max 1 (Tree.num_edges tree) in
  let tau_max = List.fold_left (fun a c -> max a (Copy.weight c)) 0 movable in
  let st =
    {
      tree;
      tau_max;
      lacc_up = Array.map (fun b -> 2 * b) basic_up;
      lacc_down = Array.map (fun b -> 2 * b) basic_down;
      lmap_up = Array.make m 0;
      lmap_down = Array.make m 0;
      node_copies = Array.make (Tree.n tree) [];
    }
  in
  List.iter
    (fun c -> st.node_copies.(c.Copy.node) <- c :: st.node_copies.(c.Copy.node))
    movable;
  let moves_up = ref 0 and moves_down = ref 0 in
  let levels = Tree.nodes_by_level_bottom_up r in
  let height = Array.length levels - 1 in
  let round = ref 0 in
  (* [checkpoint phase level] closes one round: it feeds [on_round] and
     emits the per-round trace event. [phase] is "init" before the first
     round, then "up" / "down". *)
  let checkpoint phase level =
    (match on_round with Some f -> f st | None -> ());
    if Trace.enabled () then
      Trace.event "mapping.round"
        ~attrs:
          [
            ("round", Sink.Int !round);
            ("phase", Sink.Str phase);
            ("level", Sink.Int level);
            ("tau_max", Sink.Int tau_max);
            ("moves_up", Sink.Int !moves_up);
            ("moves_down", Sink.Int !moves_down);
          ];
    incr round
  in
  let phases () =
    (* Upwards phase: rounds 0 .. height-1 (every node but the root). *)
    for l = 0 to height - 1 do
      List.iter
        (fun v ->
          if v <> r.Tree.root then begin
            let e = r.Tree.parent_edge.(v) in
            let parent = r.Tree.parent.(v) in
            let continue = ref true in
            while !continue do
              match st.node_copies.(v) with
              | c :: rest when st.lmap_up.(e) + tau_max <= st.lacc_up.(e) ->
                st.node_copies.(v) <- rest;
                c.Copy.node <- parent;
                st.node_copies.(parent) <- c :: st.node_copies.(parent);
                st.lmap_up.(e) <- st.lmap_up.(e) + Copy.weight c;
                incr moves_up
              | _ :: _ | [] -> continue := false
            done;
            (* In a sound run delta >= 0 (moves keep L_map <= L_acc); the
               clamp only matters under deliberately corrupted bookkeeping,
               where an adjustment must still never increase a load. *)
            let delta = max 0 (st.lacc_up.(e) - st.lmap_up.(e)) in
            st.lacc_up.(e) <- st.lacc_up.(e) - delta;
            st.lacc_down.(e) <- st.lacc_down.(e) - delta
          end)
        levels.(l);
      checkpoint "up" l
    done;
    (* Downwards phase: rounds height .. 1 (every bus; processors keep their
       copies). Free child edges are found through a min-heap keyed by
       L_map - L_acc, so each lookup costs O(log degree). *)
    let slack e = st.lmap_down.(e) - st.lacc_down.(e) in
    for l = height downto 1 do
      List.iter
        (fun v ->
          if (not (Tree.is_leaf tree v)) && st.node_copies.(v) <> [] then begin
            let heap = Heap.create () in
            Array.iter
              (fun c ->
                let e = r.Tree.parent_edge.(c) in
                Heap.add heap ~key:(float_of_int (slack e)) (e, c))
              r.Tree.children.(v);
            let copies = st.node_copies.(v) in
            st.node_copies.(v) <- [];
            List.iter
              (fun c ->
                match Heap.pop_min heap with
                | None -> raise (Stop (No_free_edge { node = v; copy = c }))
                | Some (_, (e, child)) ->
                  if slack e + Copy.weight c <= tau_max then begin
                    c.Copy.node <- child;
                    st.node_copies.(child) <- c :: st.node_copies.(child);
                    st.lmap_down.(e) <- st.lmap_down.(e) + Copy.weight c;
                    incr moves_down;
                    Heap.add heap ~key:(float_of_int (slack e)) (e, child)
                  end
                  else raise (Stop (No_free_edge { node = v; copy = c })))
              copies
          end)
        levels.(l);
      checkpoint "down" l
    done
  in
  match
    checkpoint "init" 0;
    phases ();
    List.find_opt (fun c -> not (Tree.is_leaf tree c.Copy.node)) movable
  with
  | exception Stop e -> Error e
  | Some c -> Error (Copy_on_bus c)
  | None ->
    Ok { tau_max; moves_up = !moves_up; moves_down = !moves_down; final = st }
