(* -- line files ----------------------------------------------------------- *)

let line_error n msg = Error (Printf.sprintf "line %d: %s" n msg)

let iter_lines text f =
  let rec go n = function
    | [] -> Ok ()
    | line :: rest -> (
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match
        List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
      with
      | [] -> go (n + 1) rest
      | word :: args -> (
        match f n word args with
        | Ok () -> go (n + 1) rest
        | Error m -> line_error n m))
  in
  go 1 (String.split_on_char '\n' text)

let int w =
  match int_of_string_opt w with
  | Some v -> Ok v
  | None -> Error ("not an integer: " ^ w)

let count what w =
  match int w with
  | Ok n when n < 0 || n >= Sys.max_array_length ->
    Error
      (Printf.sprintf "bad %s count %d (expected 0 to %d)" what n
         (Sys.max_array_length - 1))
  | r -> r

(* -- comma specs ---------------------------------------------------------- *)

type clause = { index : int; at : int; text : string }

let clauses s =
  let clause index at stop =
    { index; at; text = String.trim (String.sub s at (stop - at)) }
  in
  let rec go acc index at =
    match String.index_from_opt s at ',' with
    | Some i -> go (clause index at i :: acc) (index + 1) (i + 1)
    | None -> List.rev (clause index at (String.length s) :: acc)
  in
  go [] 1 0

let clause_error c msg =
  Error (Printf.sprintf "clause %d at char %d: %s" c.index c.at msg)

let map_clauses cs f =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match f c with Ok v -> go (v :: acc) rest | Error m -> clause_error c m)
  in
  go [] cs

(* -- files ---------------------------------------------------------------- *)

let load ~path parse =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error m -> Error m

let save ~path text =
  match Out_channel.with_open_bin path (fun oc -> output_string oc text) with
  | () -> Ok ()
  | exception Sys_error m -> Error m
