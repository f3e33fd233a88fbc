(** Plain-text table rendering for the experiment harness.

    The bench executable regenerates the paper's result rows as aligned
    ASCII tables; this module does the layout. *)

type t
(** A table under construction: a header plus accumulated rows. *)

val create : string list -> t
(** [create header] starts a table with the given column names: the
    first column is left-aligned, every other one right-aligned. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row. Rows shorter than the header are padded
    with empty cells; longer rows raise [Invalid_argument]. *)

val add_sep : t -> unit
(** [add_sep t] appends a horizontal separator line. *)

val render : t -> string
(** [render t] lays the table out with a box-drawing rule under the header. *)

val print : t -> unit
(** [print t] writes [render t] followed by a newline to stdout. *)

val fmt_float : ?digits:int -> float -> string
(** [fmt_float ~digits x] renders [x] with a fixed number of fraction digits
    (default 3), using ["-"] for [nan]. *)

val fmt_ratio : float -> float -> string
(** [fmt_ratio num den] renders [num /. den] with 3 digits, or ["inf"] /
    ["-"] for degenerate denominators. *)
