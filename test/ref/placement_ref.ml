(* Placements as lists of records, the shape the library used before its
   flat per-object arrays: a constructor and a view for tests that build
   or edit placements by hand, the list builders the library's producers
   are checked against ([nearest], [of_stages]), and the observers only
   tests read ([is_strict], [to_strict], [to_dot]). *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Copy = Hbn_core.Copy

type assignment = { leaf : int; server : int; reads : int; writes : int }

type obj = { copies : int list; assigns : assignment list }

(* Copies and assignments as given, in order: nothing sorted or checked,
   so tests can build the invalid placements the validator rejects. *)
let of_lists objs =
  Array.map
    (fun o ->
      let a = Array.of_list o.assigns in
      {
        Placement.copies = Array.of_list o.copies;
        leaf = Array.map (fun x -> x.leaf) a;
        server = Array.map (fun x -> x.server) a;
        reads = Array.map (fun x -> x.reads) a;
        writes = Array.map (fun x -> x.writes) a;
      })
    objs

let to_lists (p : Placement.t) =
  Array.map
    (fun (op : Placement.obj_placement) ->
      {
        copies = Array.to_list op.copies;
        assigns =
          List.init (Array.length op.leaf) (fun i ->
              {
                leaf = op.leaf.(i);
                server = op.server.(i);
                reads = op.reads.(i);
                writes = op.writes.(i);
              });
      })
    p

(* -- The list builders ----------------------------------------------- *)

(* Nearest-copy assignment, one record per requesting leaf in ascending
   order, from the same (distance, id) sweep. *)
let nearest w ~copies =
  let fl = Flat.of_tree (Workload.tree w) in
  let scratch = Flat.Scratch.create fl in
  of_lists
    (Array.mapi
       (fun obj copies ->
         let cs = List.sort_uniq compare copies in
         let leaves = Workload.requesting_leaves w ~obj in
         if leaves <> [] && cs = [] then
           invalid_arg "Placement.nearest: requests but no copies";
         if leaves = [] then { copies = cs; assigns = [] }
         else begin
           Flat.nearest_into fl scratch ~copies:(fun mark -> List.iter mark cs);
           let key = scratch.Flat.Scratch.acc and n = fl.Flat.n in
           {
             copies = cs;
             assigns =
               List.map
                 (fun leaf ->
                   {
                     leaf;
                     server = key.(leaf) mod n;
                     reads = Workload.reads w ~obj leaf;
                     writes = Workload.writes w ~obj leaf;
                   })
                 leaves;
           }
         end)
       copies)

type stage = [ `Unused | `Read_only of int list | `Copies of Copy.t list ]

(* The strategy's placement from its per-object stages: a read-only
   object's leaves serve themselves; otherwise each copy, at [node c],
   serves its groups with requests, copy by copy. *)
let of_stages w ~node (stages : stage array) =
  of_lists
    (Array.mapi
       (fun obj stage ->
         match stage with
         | `Unused -> { copies = []; assigns = [] }
         | `Read_only leaves ->
           {
             copies = leaves;
             assigns =
               List.map
                 (fun leaf ->
                   {
                     leaf;
                     server = leaf;
                     reads = Workload.reads w ~obj leaf;
                     writes = Workload.writes w ~obj leaf;
                   })
                 leaves;
           }
         | `Copies cs ->
           {
             copies = List.sort_uniq compare (List.map node cs);
             assigns =
               List.concat_map
                 (fun c ->
                   List.filter_map
                     (fun g ->
                       if Nibble.group_weight g = 0 then None
                       else
                         Some
                           {
                             leaf = g.Nibble.leaf;
                             server = node c;
                             reads = g.Nibble.reads;
                             writes = g.Nibble.writes;
                           })
                     c.Copy.groups)
                 cs;
           })
       stages)

(* The stages a strategy run ends with, read back from its Step 2 copies
   (in object order) and the workload: objects without requests are
   unused, write-free ones read-only. *)
let stages_of_copies w copies : stage array =
  let per_object = Array.make (Workload.num_objects w) [] in
  List.iter
    (fun c -> per_object.(c.Copy.obj) <- c :: per_object.(c.Copy.obj))
    (List.rev copies);
  Array.mapi
    (fun obj cs ->
      if Workload.total_weight w ~obj = 0 then `Unused
      else if Workload.write_contention w ~obj = 0 then
        `Read_only (Workload.requesting_leaves w ~obj)
      else `Copies cs)
    per_object

(* -- Observers ------------------------------------------------------- *)

(* No processor's requests for one object are split between servers. *)
let is_strict p =
  Array.for_all
    (fun o ->
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun a ->
          if Hashtbl.mem seen a.leaf then false
          else begin
            Hashtbl.add seen a.leaf ();
            true
          end)
        o.assigns)
    (to_lists p)

(* Reassigns each (processor, object) wholly to the server that handled
   the majority of its requests, ties to the lowest node id. *)
let to_strict p =
  of_lists
    (Array.map
       (fun o ->
         let by_leaf = Hashtbl.create 16 in
         List.iter
           (fun a ->
             let prev = try Hashtbl.find by_leaf a.leaf with Not_found -> [] in
             Hashtbl.replace by_leaf a.leaf (a :: prev))
           o.assigns;
         let assigns =
           Hashtbl.fold
             (fun leaf parts acc ->
               let reads = List.fold_left (fun s a -> s + a.reads) 0 parts in
               let writes = List.fold_left (fun s a -> s + a.writes) 0 parts in
               let server =
                 let best = ref (-1) and best_w = ref (-1) in
                 List.iter
                   (fun a ->
                     let wgt = a.reads + a.writes in
                     if wgt > !best_w || (wgt = !best_w && a.server < !best)
                     then begin
                       best := a.server;
                       best_w := wgt
                     end)
                   parts;
                 !best
               in
               { leaf; server; reads; writes } :: acc)
             by_leaf []
         in
         { o with assigns = List.sort compare assigns })
       (to_lists p))

(* Graphviz rendering of the network with each processor labeled by the
   objects it holds copies of (buses as boxes, as in [Tree.to_dot]). *)
let to_dot tree (p : Placement.t) =
  let held = Array.make (Tree.n tree) [] in
  Array.iteri
    (fun obj (op : Placement.obj_placement) ->
      Array.iter (fun v -> held.(v) <- obj :: held.(v)) op.copies)
    p;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph hbn_placement {\n";
  for v = 0 to Tree.n tree - 1 do
    if Tree.is_leaf tree v then begin
      let label =
        match List.rev held.(v) with
        | [] -> Printf.sprintf "P%d" v
        | objs ->
          Printf.sprintf "P%d\\nx%s" v
            (String.concat ",x" (List.map string_of_int objs))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"%s\"];\n" v label)
    end
    else
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"bus %d\"];\n" v v)
  done;
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    Buffer.add_string buf
      (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v
         (Tree.edge_bandwidth tree e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
