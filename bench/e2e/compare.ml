(* --compare A B: one row per workload x end-to-end metric of two --out
   files (several records of one workload are pooled). A row is
   "unresolved" when either side's interquartile spread, as a share of
   its median, is wider than the metric's bound, unless every sample of
   B beats every sample of A; otherwise B's median is "worse" or
   "better" than A's by more than the bound, or "within" it. *)

module Json = Hbn_obs.Json
module Table = Hbn_util.Table

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse_result l with
         | Ok doc -> doc
         | Error m -> failwith (Printf.sprintf "%s: %s" path m))
  |> List.filter (fun doc ->
         Option.bind (Json.member "trace" doc) Json.to_int = Some 0)

let samples records ~workload ~metric =
  List.concat_map
    (fun doc ->
      if Option.bind (Json.member "workload" doc) Json.to_string <> Some workload
      then []
      else
        Option.bind (Json.member "metrics" doc) (Json.member metric)
        |> Fun.flip Option.bind (Json.member "samples")
        |> Fun.flip Option.bind Json.to_list
        |> Option.value ~default:[]
        |> List.filter_map Json.to_float)
    records

let spread xs =
  let q1, q3 = Layer.quartiles xs in
  (q3 -. q1) /. Layer.median xs

let verdict ~bound a b =
  let ma = Layer.median a and mb = Layer.median b in
  let delta = (mb -. ma) /. ma in
  if Float.max (spread a) (spread b) > bound then
    if List.fold_left Float.max neg_infinity b < List.fold_left Float.min infinity a
    then "better"
    else "unresolved"
  else if delta > bound then "worse"
  else if delta < -.bound then "better"
  else "within"

let run path_a path_b =
  match (load path_a, load path_b) with
  | exception (Failure m | Sys_error m) ->
    prerr_endline ("e2e: " ^ m);
    2
  | ra, rb ->
    let tbl =
      Table.create
        [ "workload"; "metric"; "A median"; "A q1..q3"; "B median"; "B q1..q3";
          "change"; "bound"; "verdict" ]
    in
    let worse = ref 0 in
    List.iter
      (fun (wl : Workloads.t) ->
        List.iter
          (fun (m : Metrics.t) ->
            let a = samples ra ~workload:wl.name ~metric:m.name in
            let b = samples rb ~workload:wl.name ~metric:m.name in
            if a <> [] && b <> [] then begin
              let bound = Option.get m.bound in
              let v = verdict ~bound a b in
              if v = "worse" then incr worse;
              let range xs =
                let q1, q3 = Layer.quartiles xs in
                Printf.sprintf "%.4g..%.4g" q1 q3
              in
              let ma = Layer.median a and mb = Layer.median b in
              Table.add_row tbl
                [
                  wl.name; m.name ^ " (" ^ m.unit_ ^ ")";
                  Printf.sprintf "%.4g" ma; range a;
                  Printf.sprintf "%.4g" mb; range b;
                  Printf.sprintf "%+.1f%%" (100. *. (mb -. ma) /. ma);
                  Printf.sprintf "%.0f%%" (100. *. bound);
                  v;
                ]
            end)
          Metrics.end_to_end)
      Workloads.all;
    Table.print tbl;
    if !worse > 0 then 1 else 0
