(** A small path query language over XML trees, used by Active XML
    peers to define declarative services over their repositories
    (Section 7).

    Grammar: [path ::= step+], [step ::= ("/" | "//") test pred*],
    [test ::= name | "*" | "text()"],
    [pred ::= "[" digits "]" | "[@" name "=" "\'" value "\'" "]"].
    ["/"] selects direct children, ["//"] descendants-or-self; for the
    first child step the root element itself is the candidate
    (document-node convention). Predicates select by 1-based position
    within each context node\'s matches, or by attribute value. *)

type test = Name of string | Any | Text
type axis = Child | Descendant

type pred =
  | Position of int
  | Attr_equals of { name : string; value : string }

type step = { axis : axis; test : test; preds : pred list }
type t = step list

exception Parse_error of string

val parse : string -> t
val select : string -> Xml_tree.t -> Xml_tree.t list

val select_strings : string -> Xml_tree.t -> string list
(** String values of selected nodes (text content of elements, contents
    of text nodes). *)
