(** Hand-written XML parser covering the subset the Active XML layer
    needs: prolog, elements, attributes, character data with entity
    references, CDATA sections, comments, processing instructions.
    DOCTYPE declarations outside the root element are skipped; one
    inside an element is an error. Character references must name a
    Unicode scalar value ([&#[0-9]+;] or [&#x[0-9a-fA-F]+;]). *)

type position = { line : int; column : int }
(** Lines end at ["\n"] only; the column counts bytes from 1. *)

exception Error of { pos : position; message : string }

val parse : string -> Xml_tree.t
(** Parse a whole document and return its root element. Leading and
    trailing comments, processing instructions and whitespace are
    allowed. @raise Error with a line/column position otherwise. *)

val parse_result : string -> (Xml_tree.t, string) result
