(** The XML wire syntax of intensional documents (Section 7): embedded
    calls are elements in the [http://www.activexml.com/ns/int]
    namespace:

    {v
<int:fun endpointURL="..." methodName="Get_Temp" namespaceURI="...">
  <int:params>
    <int:param><city>Paris</city></int:param>
  </int:params>
</int:fun>
    v}

    Every call node carries its own namespace declaration, so any
    subtree extracted by a query remains a well-formed intensional
    fragment. *)

val axml_ns : string

exception Syntax_error of string

val to_xml : Axml_core.Document.t -> Axml_xml.Xml_tree.t
(** Every call is printed local: [endpointURL="local:"] and
    [namespaceURI="urn:axml:local"]. *)

val to_xml_string : ?pretty:bool -> Axml_core.Document.t -> string

val of_xml : Axml_xml.Xml_tree.t -> Axml_core.Document.t
(** @raise Syntax_error on malformed intensional markup. Inside one
    [int:fun] the refusal is, in this order: a missing [methodName];
    an offence inside its first [int:params]; content other than layout
    before or after that [int:params], a second [int:params]
    included. *)

val of_xml_string : string -> Axml_core.Document.t
(** Decode the XML bytes of a document, in one pass over them with no
    [Xml_tree]: the pass of {!of_xml_string_checked}, checking the
    syntax only. Names are looked up, never interned. At its first
    offence (malformed bytes or markup, too many namespace prefixes, a
    name no schema declared, no root or several) the bytes are decoded
    again through [Xml_parser.parse_result] and {!of_xml}, so the
    document and the error are always that route's.
    @raise Syntax_error as that route does, with its message. *)

val of_xml_string_checked :
  Axml_core.Validate.ctx -> string -> Axml_core.Document.t option
(** One pass over the bytes, with no [Xml_tree]: decode and check the
    document against the context (Definition 3 and the root rule) at
    once. [Some doc] when {!of_xml_string} would return [doc] and
    [Validate.document_violations ctx doc] would be [[]], with the same
    names and symbol ids; [None] otherwise, at the first offence of any
    kind (malformed bytes or markup, an undeclared name, a children
    word outside its model), so the caller that reports the refusal
    rebuilds it through {!of_xml_string} and
    [Validate.document_violations]. *)

(**/**)

(* shared with Soap and Peer for forest-level conversion *)
val of_xml_forest : Axml_xml.Xml_ns.env -> Axml_xml.Xml_tree.t list -> Axml_core.Document.forest
(* The nodes decoded in order under [env], layout dropped. *)
