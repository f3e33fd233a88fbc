(* The case matrices behind the committed BENCH_<name>.json baselines,
   as the one table the writer (bench/record.exe) and the regression
   gate (bench/check.exe) share.

   Running a matrix computes its cases once, checks the matrix's
   contract on them and renders every case through its JSON writer, so
   neither consumer can see the cases without the contract verdict. *)

type t = {
  name : string;  (* the file is BENCH_<name>.json *)
  schema : string;
  run : unit -> string list * string list;
      (* contract violations, then one rendered JSON object per case *)
}

let matrix ~name ~schema ~all ~contract ~json_of_case =
  let run () =
    let cases = all () in
    (contract cases, List.map json_of_case cases)
  in
  { name; schema; run }

let all =
  [
    matrix ~name:"pipeline" ~schema:Pipeline_cases.schema
      ~all:Pipeline_cases.all
      ~contract:(fun _ -> [])
      ~json_of_case:Pipeline_cases.json_of_case;
    matrix ~name:"faults" ~schema:Fault_cases.schema ~all:Fault_cases.all
      ~contract:Fault_cases.contract ~json_of_case:Fault_cases.json_of_case;
    matrix ~name:"async" ~schema:Async_cases.schema ~all:Async_cases.all
      ~contract:Async_cases.contract ~json_of_case:Async_cases.json_of_case;
    matrix ~name:"monitor" ~schema:Monitor_cases.schema
      ~all:Monitor_cases.all ~contract:Monitor_cases.contract
      ~json_of_case:Monitor_cases.json_of_case;
    matrix ~name:"serve" ~schema:Serve_cases.schema ~all:Serve_cases.all
      ~contract:Serve_cases.contract ~json_of_case:Serve_cases.json_of_case;
  ]

let file name = "BENCH_" ^ name ^ ".json"
let find name = List.find_opt (fun m -> m.name = name) all
