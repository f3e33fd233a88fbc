(** The reader behind every text input: the topology, workload and
    serve-table files, and the comma-separated [--faults]/[--link] specs.

    Line files: a [#] starts a comment that runs to the end of the line,
    words are separated by spaces, and lines without words are skipped.
    Errors name their position as ["line N: …"] in a file and
    ["clause N at char C: …"] in a spec. Nothing here raises on any
    input. *)

val iter_lines :
  string -> (int -> string -> string list -> (unit, string) result) ->
  (unit, string) result
(** [iter_lines text f] calls [f n word args] on each line of [text] that
    has a word, in order: [n] is the 1-based line number, [word] the
    line's first word and [args] the rest. The first [Error m] stops the
    walk and returns [Error "line n: m"]. *)

val line_error : int -> string -> ('a, string) result
(** [line_error n m] is [Error "line n: m"]. *)

val int : string -> (int, string) result
(** An integer word, or [Error "not an integer: W"]. *)

val count : string -> string -> (int, string) result
(** [count what w]: a size below [Sys.max_array_length], the longest
    array; otherwise [Error "bad WHAT count …"]. *)

type clause = { index : int; at : int; text : string }
(** A spec clause: its 1-based index, the offset of its first char in
    the spec, and its text with surrounding blanks trimmed. *)

val clauses : string -> clause list
(** The comma-separated clauses of a spec, empty ones included (so never
    [[]]). *)

val clause_error : clause -> string -> ('a, string) result
(** [Error "clause N at char C: m"]. *)

val map_clauses : clause list -> (clause -> ('a, string) result) ->
  ('a list, string) result
(** Parses each clause in order; the first [Error m] is returned through
    {!clause_error}. *)

val load : path:string -> (string -> ('a, string) result) -> ('a, string) result
(** [load ~path parse] reads the whole file and parses it. Every
    [Sys_error] (a missing file, a directory) is returned as [Error]. *)

val save : path:string -> string -> (unit, string) result
(** Writes [text] to a file, returning every [Sys_error] as [Error]. *)
