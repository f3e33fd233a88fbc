(* Reference oracle for Serve's hot-object ranking: the form the serving
   loop ran before it ranked from the engine. It builds a full
   attribution table over the engine's loads (every edge x object x
   component), takes the table's [2k] hottest sites and sums each
   object's contributions over them. The tests check that
   [Serve.hot_objects] returns exactly what this returns. *)

module Attribution = Hbn_obs.Attribution

(* Contributions summed over the hottest attribution sites, largest
   total first (ties: lower object id). *)
let hot_objects eng ~k =
  let attr = Attribution.of_loads eng in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (site, _) ->
      let contribs =
        match site with
        | `Edge edge -> Attribution.edge_contributions attr ~edge
        | `Bus bus -> Attribution.bus_contributions attr ~bus
      in
      List.iter
        (fun (c : Attribution.contribution) ->
          let prev = try Hashtbl.find tbl c.Attribution.obj with Not_found -> 0 in
          Hashtbl.replace tbl c.Attribution.obj (prev + c.Attribution.amount))
        contribs)
    (Attribution.hotspots attr ~k:(2 * k));
  Hashtbl.fold (fun o a acc -> (o, a) :: acc) tbl []
  |> List.sort (fun (o1, a1) (o2, a2) ->
         if a1 <> a2 then compare a2 a1 else compare o1 o2)
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst |> Array.of_list
