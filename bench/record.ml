(* Records case-matrix baselines.

   Run with:  dune exec bench/record.exe -- NAME...
   NAME is pipeline, faults, async, monitor or serve. Each matrix is
   computed, its contract checked, and BENCH_<NAME>.json written to the
   current directory; a broken contract writes nothing and exits 1.
   bench/check.exe diffs the same cases against the committed files. *)

let usage () =
  Printf.eprintf "usage: record.exe NAME...  (NAME: %s)\n"
    (String.concat ", " (List.map (fun m -> m.Matrix.name) Matrix.all));
  exit 2

let record m =
  match m.Matrix.run () with
  | [], cases ->
    let path = Matrix.file m.Matrix.name in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Meta.header ~schema:m.Matrix.schema);
        output_string oc " \"cases\":[\n";
        output_string oc (String.concat ",\n" cases);
        output_string oc "\n]}\n");
    Printf.printf "bench/record: wrote %d %s cases to %s\n"
      (List.length cases) m.Matrix.name path
  | errs, _ ->
    List.iter (Printf.eprintf "bench/record: %s: %s\n" m.Matrix.name) errs;
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> usage ()
  | names ->
    List.map
      (fun n -> match Matrix.find n with Some m -> m | None -> usage ())
      names
    |> List.iter record
