(* Reference oracle for Step 3's basic loads: the edge-by-edge climb the
   library ran before its directed endpoint differences. Each group's
   serving path is walked from the copy up to the LCA and from the leaf
   up to the LCA, adding the group's weight to every edge on the way. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy

let basic_loads tree copies =
  let m = max 1 (Tree.num_edges tree) in
  let up = Array.make m 0 and down = Array.make m 0 in
  let fl = Flat.of_tree tree in
  let r = fl.Flat.r in
  List.iter
    (fun c ->
      List.iter
        (fun g ->
          let amount = Nibble.group_weight g in
          let server = c.Copy.node and leaf = g.Nibble.leaf in
          if amount > 0 && server <> leaf then begin
            let a = Flat.lca fl server leaf in
            let v = ref server in
            while !v <> a do
              let e = r.Tree.parent_edge.(!v) in
              up.(e) <- up.(e) + amount;
              v := r.Tree.parent.(!v)
            done;
            let v = ref leaf in
            while !v <> a do
              let e = r.Tree.parent_edge.(!v) in
              down.(e) <- down.(e) + amount;
              v := r.Tree.parent.(!v)
            done
          end)
        c.Copy.groups)
    copies;
  (up, down)
