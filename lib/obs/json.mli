(** The one JSON value type and printer of the system.

    Every report the system emits — metrics dumps, trace events, lint
    and evolution envelopes, batch statistics, soak reports, benchmark
    artifacts — is built as a {!t} and rendered by one of the two
    printers below, so all outputs share one string escaper, one float
    rule and one of exactly two layouts.

    {b Strings} are emitted byte for byte, except that ["\""], ["\\"],
    newline, carriage return and tab become two-character escapes and
    every other control byte (below [0x20]) becomes [\u00XX].

    {b Floats}: a non-finite float ([nan], [infinity]) prints as
    [null]; a finite one prints with the shorter of [%.15g] and
    [%.17g] that reads back to the same float, so values round-trip
    exactly.

    {b Layouts}: {!to_string} for one-line output (stdout envelopes,
    HTTP bodies, wire payloads, JSONL lines) and {!to_string_pretty}
    for files written to disk. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Members in the order given; keys are not deduplicated. *)

val to_string : t -> string
(** One line, [", "] between members and elements and [": "] after
    keys. Never contains a newline character (newlines inside strings
    are escaped). *)

val to_string_pretty : t -> string
(** Indented by 2 spaces per level, one member or element per line;
    empty arrays and objects print as [[]] and [{}]. No trailing
    newline. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string_pretty v] and a final newline
    to [path], replacing it: the one on-disk layout. *)

val opt : string -> ('a -> t) -> 'a option -> (string * t) list
(** [opt key f o] is the member [(key, f x)] when [o] is [Some x] and
    no member when it is [None]. *)
