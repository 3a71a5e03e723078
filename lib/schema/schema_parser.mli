(** A compact textual syntax for schemas, mirroring the paper's
    notation:

    {v
root newspaper
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit* )
element title = #data
function Get_Temp : city -> temp
noninvocable function TimeOut : #data -> (exhibit | performance)*
pattern Forecast requires UDDIF InACL : city -> temp
    v}

    Every declared name (root, element, function, pattern) and every
    identifier in a content model is a name an XML document can carry,
    [[A-Za-z_][A-Za-z0-9_-]*]; a content model may also say [#data],
    [#any] or [#anyfun]. Anything else is a positioned [Parse_error].

    Lines starting with ['#'] and blank lines are ignored. Names used in
    content models resolve to functions or patterns when declared as
    such anywhere in the file, otherwise to element labels. The
    XML-syntax schemas of Section 7 are handled by
    [Axml_peer.Xml_schema_int].

    Errors carry full source positions: 1-based line and column, with
    offsets reported inside regular-expression bodies translated back to
    columns of the original line. *)

exception Parse_error of { line : int; col : int; message : string }

type pos = { line : int; col : int }
(** A 1-based source position. *)

val parse : string -> Schema.t
(** @raise Parse_error (line 0 carries whole-schema errors). *)

val parse_with_positions : string -> Schema.t * pos Schema.String_map.t
(** As {!parse}, also returning where each element / function / pattern
    declaration's name sits in the source (first declaration wins), so
    downstream diagnostics can point at it. *)

val parse_result : string -> (Schema.t, string) result
(** Errors render as ["line L, col C: ..."] (or ["schema: ..."] for
    whole-schema errors). *)
