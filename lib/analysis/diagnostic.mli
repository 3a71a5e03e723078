(** Structured lint diagnostics.

    Every finding of the static analyses in {!Lint} is a {!t}: a stable
    rule code ([AXM001]...), a {!severity}, a structured {!location}
    (what schema object or document node the finding is about, plus an
    optional source position threaded from [Schema_parser]) and a
    human message with an optional fix hint.

    Renderers are deliberately dumb: the text form is one
    [severity[CODE] file:line:col subject: message] line per
    diagnostic, the JSON form is a stable object consumed by tooling
    (and validated by the test suite's JSON checker). *)

type severity = Error | Warning | Hint

val pp_severity : severity Fmt.t

(** What a diagnostic is about. *)
type subject =
  | Element of string      (** an element declaration *)
  | Function of string     (** a function declaration *)
  | Pattern of string      (** a pattern declaration *)
  | Root                   (** the schema's root (or its absence) *)
  | Schema_pair of string  (** sender/target compatibility at a label *)
  | Node of int list       (** a document node, by path from the root *)

type pos = { line : int; col : int }  (** 1-based source position *)

type location = {
  file : string option;  (** source file, when linting from disk *)
  pos : pos option;      (** position of the declaration, when known *)
  subject : subject;
}

val at : ?file:string -> ?pos:pos -> subject -> location

type t = {
  code : string;          (** stable rule code, e.g. ["AXM002"] *)
  severity : severity;
  loc : location;
  message : string;
  hint : string option;   (** suggested fix, when one is obvious *)
}

val make :
  ?file:string -> ?pos:pos -> ?hint:string ->
  code:string -> severity:severity -> subject -> string -> t

val compare : t -> t -> int
(** Order for stable reports: file, position, code, subject. *)

(** {1 Severity accounting} *)

val count : severity -> t list -> int
val max_severity : t list -> severity option
val exceeds : deny:severity -> t list -> bool
(** Does any diagnostic reach the [deny] threshold? *)

(** {1 Rendering} *)

val pp : t Fmt.t
(** One line, plus an indented [hint:] line when present. *)

val to_json : t -> Axml_obs.Json.t
(** A JSON object: [code], [severity], [subject] (kind + name/path),
    optional [file]/[line]/[col], [message], optional [hint]. *)

val report_fields : t list -> (string * Axml_obs.Json.t) list
(** The two members every JSON report shares: [diagnostics] (sorted
    with {!compare}) and [summary] ([{"errors": n, "warnings": n,
    "hints": n}]). Command envelopes append their payload to these. *)

val report_to_json : t list -> Axml_obs.Json.t
(** [{"diagnostics": [...], "summary": {...}}]: {!report_fields} as an
    object. *)

(** {1 Catalog} *)

val rules : (string * severity * string) list
(** Every rule the linter can emit: code, default severity, one-line
    description. Kept in sync with [LINTING.md] (checked by tests). *)
