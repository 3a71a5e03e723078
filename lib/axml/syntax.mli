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
(** Decode the XML bytes of a document in one pass over them, with no
    [Xml_tree]: the pass of {!of_xml_string_checked}, checking the
    syntax only. Names are looked up, never interned; a node whose name
    no schema declared has id [-1], as {!Axml_core.Document.elem} gives
    it. The document, and the error, are those of
    [Xml_parser.parse_result] then {!of_xml}: bytes that do not parse
    anywhere in the input are reported before a markup offence (worded
    ["line L, column C: ..."], as [parse_result] words them), and
    markup offences rank as {!of_xml} ranks them.
    @raise Syntax_error with that route's message. *)

(** Why {!of_xml_string_checked} refused a document. *)
type refusal =
  | Malformed of string
      (** {!of_xml_string} raises [Syntax_error] with this message *)
  | Violations of Axml_core.Validate.violation list
      (** the document decodes, and these are its
          [Validate.document_violations], never [[]] *)

val of_xml_string_checked :
  Axml_core.Validate.ctx -> string -> (Axml_core.Document.t, refusal) result
(** The one pass of {!of_xml_string}, checking the document against the
    context (Definition 3 and the root rule) as it decodes. [Ok doc]
    when {!of_xml_string} would return [doc], with the same names and
    symbol ids, and [Validate.document_violations ctx doc] would be
    [[]]; the refusal otherwise, in that route's words and order. At
    its first violation the pass goes on building and lists the
    violation of each node that closes after it, so a refused document
    is decoded once. *)

(**/**)

(* shared with Soap and Peer for forest-level conversion *)
val of_xml_forest : Axml_xml.Xml_ns.env -> Axml_xml.Xml_tree.t list -> Axml_core.Document.forest
(* The nodes decoded in order under [env], layout dropped. *)
