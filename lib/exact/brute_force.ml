module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type candidates = [ `Leaves | `All_nodes ]

exception Too_large of string

let default_budget = 2_000_000

let dominates a b =
  (* a <= b pointwise *)
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let pareto_insert kept vec =
  if List.exists (fun v -> dominates v vec) !kept then ()
  else kept := vec :: List.filter (fun v -> not (dominates vec v)) !kept

let candidate_nodes tree = function
  | `Leaves -> Tree.leaves tree
  | `All_nodes -> List.init (Tree.n tree) (fun v -> v)

let object_vectors ?(budget = default_budget) w ~obj ~candidates =
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let leaves = Array.of_list (Workload.requesting_leaves w ~obj) in
  let nl = Array.length leaves in
  if nl = 0 then [ Array.make m 0 ]
  else begin
    let cand = Array.of_list (candidate_nodes tree candidates) in
    let nc = Array.length cand in
    if nc > 20 then raise (Too_large "more than 20 candidate nodes");
    let kappa = Workload.write_contention w ~obj in
    let fl = Flat.of_tree tree in
    let scratch = Flat.Scratch.create fl in
    (* Path edge lists between every requesting leaf and every candidate. *)
    let paths =
      Array.init nl (fun i ->
          Array.init nc (fun j ->
              Flat.fold_path fl scratch leaves.(i) cand.(j) ~init:[]
                ~f:(fun acc e -> e :: acc)))
    in
    let weights =
      Array.map (fun leaf -> Workload.weight w ~obj leaf) leaves
    in
    let kept = ref [] in
    let enumerated = ref 0 in
    for mask = 1 to (1 lsl nc) - 1 do
      (* Copy set = candidates selected by the mask. *)
      let px = ref [] in
      for j = nc - 1 downto 0 do
        if mask land (1 lsl j) <> 0 then px := j :: !px
      done;
      let px = Array.of_list !px in
      let k = Array.length px in
      let base = Array.make m 0 in
      if kappa > 0 then
        Flat.iter_steiner fl scratch
          ~nodes:(fun mark -> Array.iter (fun j -> mark cand.(j)) px)
          (fun e -> base.(e) <- base.(e) + kappa);
      (* Every assignment of the nl requesting leaves to the k copies. *)
      let assign = Array.make nl 0 in
      let continue = ref true in
      while !continue do
        incr enumerated;
        if !enumerated > budget then
          raise (Too_large "assignment enumeration budget exceeded");
        let vec = Array.copy base in
        for i = 0 to nl - 1 do
          List.iter
            (fun e -> vec.(e) <- vec.(e) + weights.(i))
            paths.(i).(px.(assign.(i)))
        done;
        pareto_insert kept vec;
        (* Odometer increment. *)
        let rec bump i =
          if i >= nl then continue := false
          else if assign.(i) + 1 < k then assign.(i) <- assign.(i) + 1
          else begin
            assign.(i) <- 0;
            bump (i + 1)
          end
        in
        bump 0
      done
    done;
    !kept
  end

type optimum = { congestion : float; edge_loads : int array }

let congestion_value tree loads =
  (Placement.congestion_of_edge_loads tree loads).Placement.value

let optimum ?(budget = default_budget) ?upper_bound w ~candidates =
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let nobj = Workload.num_objects w in
  let vectors =
    Array.init nobj (fun obj ->
        let vs = object_vectors ~budget w ~obj ~candidates in
        (* Try low-congestion vectors first for early good incumbents. *)
        List.sort
          (fun a b -> compare (congestion_value tree a) (congestion_value tree b))
          vs
        |> Array.of_list)
  in
  (* Suffix minima per edge: a lower bound on what objects i.. must add. *)
  let suffix = Array.make_matrix (nobj + 1) m 0 in
  for i = nobj - 1 downto 0 do
    for e = 0 to m - 1 do
      let best = ref max_int in
      Array.iter (fun v -> if v.(e) < !best then best := v.(e)) vectors.(i);
      suffix.(i).(e) <- suffix.(i + 1).(e) + if !best = max_int then 0 else !best
    done
  done;
  let best = ref (match upper_bound with Some u -> u +. 1e-9 | None -> infinity) in
  let best_loads = ref None in
  let partial = Array.make m 0 in
  let scratch = Array.make m 0 in
  let rec search i =
    for e = 0 to m - 1 do
      scratch.(e) <- partial.(e) + suffix.(i).(e)
    done;
    let bound = congestion_value tree scratch in
    if bound < !best -. 1e-12 then begin
      if i = nobj then begin
        best := bound;
        best_loads := Some (Array.copy scratch)
      end
      else
        Array.iter
          (fun v ->
            for e = 0 to m - 1 do
              partial.(e) <- partial.(e) + v.(e)
            done;
            search (i + 1);
            for e = 0 to m - 1 do
              partial.(e) <- partial.(e) - v.(e)
            done)
          vectors.(i)
    end
  in
  search 0;
  match !best_loads with
  | Some loads -> { congestion = !best; edge_loads = loads }
  | None ->
    (* Unreachable when upper_bound really is achievable: the search
       accepts configurations matching it thanks to the +1e-9 slack. *)
    failwith "Brute_force.optimum: upper_bound below the true optimum"

let min_total_load ?(budget = default_budget) w ~candidates =
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let loads = Array.make m 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    let vs = object_vectors ~budget w ~obj ~candidates in
    (* The total decomposes over objects; a per-object sum minimizer
       survives Pareto filtering (anything dominating it has an equal or
       smaller sum). *)
    let best = ref None in
    List.iter
      (fun v ->
        let s = Array.fold_left ( + ) 0 v in
        match !best with
        | Some (s0, _) when s0 <= s -> ()
        | _ -> best := Some (s, v))
      vs;
    match !best with
    | Some (_, v) -> Array.iteri (fun e l -> loads.(e) <- loads.(e) + l) v
    | None -> ()
  done;
  { congestion = congestion_value tree loads; edge_loads = loads }

let min_edge_loads ?(budget = default_budget) w ~candidates =
  let tree = Workload.tree w in
  let m = max 1 (Tree.num_edges tree) in
  let mins = Array.make m 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    let vs = object_vectors ~budget w ~obj ~candidates in
    for e = 0 to m - 1 do
      let best = ref max_int in
      List.iter (fun v -> if v.(e) < !best then best := v.(e)) vs;
      if !best < max_int then mins.(e) <- mins.(e) + !best
    done
  done;
  mins
