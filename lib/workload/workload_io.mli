(** Textual serialization of workloads.

    Line-oriented, paired with {!Hbn_tree.Topology_io}:

    {v
    # comments and blank lines are ignored
    objects 3
    rate 0 5 12 4    # rate <object> <processor> <reads> <writes>
    rate 2 6 0 9
    v}

    The file conventions are {!Hbn_util.Text}'s. [objects] is a count below
    [Sys.max_array_length], declared once, before or after the
    [rate] lines. Unlisted (object, processor) pairs have zero
    frequencies. Rates on non-processors, negative rates, out-of-range
    ids and a second [rate] line for a pair are rejected. Every error of
    a line carries it (["line 3: duplicate rate for object 0 at node 1
    (first declared on line 2)"]). No function here raises. *)

val to_string : Workload.t -> string
(** Render; only nonzero rates are emitted. *)

val of_string : Hbn_tree.Tree.t -> string -> (Workload.t, string) result

val set_rate :
  Workload.t -> (int * int, int) Hashtbl.t -> line:int -> obj:int ->
  node:int -> reads:int -> writes:int -> (unit, string) result
(** One [rate] line's rule, shared with the serve tables' [e] lines:
    checks the ids, rejects a pair that [first] already maps to a line
    (the error names that line), then records [line] in [first] and sets
    the rates. Errors carry no position. *)

val save : Workload.t -> path:string -> (unit, string) result

val load : Hbn_tree.Tree.t -> path:string -> (Workload.t, string) result
