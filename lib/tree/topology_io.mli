(** Textual serialization of hierarchical bus networks.

    A small line-oriented format so topologies can be stored in files,
    passed to the CLI, and diffed:

    {v
    # comments and blank lines are ignored
    nodes 6
    bus 0 4        # bus <id> <bandwidth>
    bus 1 2
    proc 3         # proc <id>
    edge 0 1 2     # edge <u> <v> <bandwidth>
    root 0         # optional; defaults to the lowest-numbered bus
    v}

    The file conventions ([#] comments, blank lines, space-separated
    words) are {!Hbn_util.Text}'s. [nodes] is a count below
    [Sys.max_array_length], declared once. Every node id in
    [[0, nodes)] must be declared exactly once; edges must form a tree.
    Errors of a line carry it (["line 3: not an integer: x"]); the
    others name a node or are {!Tree.make}'s. No function here raises. *)

val to_string : Tree.t -> string
(** Render a network in the format above (parses back to an identical
    network). *)

val of_string : string -> (Tree.t, string) result

val save : Tree.t -> path:string -> (unit, string) result
(** Write [to_string] to a file. *)

val load : path:string -> (Tree.t, string) result
(** Read and parse a file; an unreadable file is an [Error]. *)
