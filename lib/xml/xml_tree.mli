(** XML node trees — the carrier syntax for intensional documents
    (Section 7 of the paper). Names are kept as written
    (["prefix:local"]); namespace resolution is the separate pass
    {!Xml_ns}. *)

type attribute = { name : string; value : string }

type t =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of { target : string; content : string }

and element = { name : string; attrs : attribute list; children : t list }

(** {1 Construction} *)

val element : ?attrs:attribute list -> string -> t list -> t
val text : string -> t
val cdata : string -> t
val comment : string -> t
val pi : string -> string -> t
val attr : string -> string -> attribute

(** {1 Access} *)

val attr_value : element -> string -> string option

val child_elements : element -> element list
(** Direct children that are elements. *)

val child_element : element -> string -> element option
(** First direct child element with that (as-written) name. *)

val text_content : element -> string
(** Concatenated character data of the direct children. *)

(** {1 Utilities} *)

val is_whitespace : string -> bool

val strip_layout : t -> t
(** Drop whitespace-only text nodes, comments and processing
    instructions, recursively. *)

val equal : t -> t -> bool
(** Structural equality; attribute order is irrelevant. *)

val count_nodes : t -> int
val depth : t -> int
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Prefix-order fold over every node. *)
