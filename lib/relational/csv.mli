(** Minimal CSV import/export for relations.

    The CLI loads base tables from CSV files with a header row.  Values are
    parsed with {!Value.parse} (integers, rationals [n/d], floats, booleans,
    strings).  Quoting: double quotes with doubled-quote escapes; quoted
    fields are always treated as strings. *)

val parse_string : string -> Relation.t
(** @raise Invalid_argument on an empty input, ragged rows or duplicate
    header names. *)

val load : string -> Relation.t
(** Read a file. @raise Sys_error on I/O failure. *)

val to_string : Relation.t -> string
(** The relation as CSV text.  A float is written with enough digits
    (15 to 17) that {!Value.parse} reads back the same float: 0.12345675
    stays 0.12345675 and 2.0 is written [2.], not [2].  A string is
    quoted when its bare text would not read back as the same string
    (["1"], ["true"], [" a"], ["1/2"]) or holds a comma, a quote or a
    newline. *)

val save : string -> Relation.t -> unit
