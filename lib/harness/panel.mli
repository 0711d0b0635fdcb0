(** One table shape for every benchmark panel: the figure rows of
    Figures 6–7 and each side panel alike.  A panel is a name, one header
    and rows of typed cells.  It renders to CSV and to an aligned stdout
    table, and [bench/budgets.csv] gates it through one row grammar:

    {v panel,key=v;key=v,metric,<=|>=,threshold v}

    A budget row applies to every panel row whose [key] cells render to
    the given values, and compares each matched row's {e unrounded}
    [metric] against the threshold. *)

type cell =
  | Int of int
  | Str of string
  | Bool of bool
  | Float of float * int  (** value, and the decimals it prints with *)

type row = cell list
type t = private { name : string; header : string list; rows : row list }

val make : string -> string list -> row list -> t
(** [make name header rows].  Raises [Invalid_argument] when a row's width
    differs from the header's. *)

val render : cell -> string
(** The cell as it appears in CSV and on stdout ([Float (v, d)] prints
    [d] decimals). *)

val csv_row : row -> string
val write_csv : t -> string -> unit
(** The header line, then one line per row. *)

val print : t -> unit
(** Aligned table on stdout: strings left-aligned, numbers right-aligned. *)

val get : t -> row -> string -> cell
(** The cell of [row] under a column name.  Raises [Invalid_argument]
    naming the column and the panel when the panel has no such column. *)

val to_float : cell -> float
(** The unrounded value of an [Int] or [Float] cell; raises
    [Invalid_argument] on the others. *)

val select : t -> (string * string) list -> row list
(** The rows whose cells under every [(column, value)] render to
    [value]. *)

(** {1 Budgets} *)

type cmp = Le | Ge

type budget = {
  loc : string;  (** [file:line] of the row, for messages *)
  panel : string;
  keys : (string * string) list;
  metric : string;
  cmp : cmp;
  threshold : float;
}

val parse_budgets : file:string -> string -> budget list
(** Parse the contents of a budget file; blank lines and [#] comments are
    skipped.  Raises [Failure "file:line: ..."] on a malformed row. *)

type verdict = {
  budget : budget;
  worst : cell;  (** the matched metric nearest to, or past, the threshold *)
  matched : int;  (** panel rows the budget applied to *)
  failed : int;  (** matched rows past the threshold *)
}

val check : budget list -> t list -> verdict list
(** One verdict per budget, in order.  Raises [Failure "file:line: ..."]
    when a budget names an unknown panel or column, its metric is not
    numeric, or it matches no row. *)

val verdict_to_string : verdict -> string
