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

type locator = string -> (string * string) option
(** [(endpointURL, namespaceURI)] of a function, for serialization. *)

val default_locator : locator
(** Everything local. *)

val to_xml : ?locate:locator -> Axml_core.Document.t -> Axml_xml.Xml_tree.t
val to_xml_string : ?locate:locator -> ?pretty:bool -> Axml_core.Document.t -> string

val of_xml : Axml_xml.Xml_tree.t -> Axml_core.Document.t
(** @raise Syntax_error on malformed intensional markup. Inside one
    [int:fun] the refusal is, in this order: a missing [methodName];
    an offence inside its first [int:params]; content other than layout
    before or after that [int:params], a second [int:params]
    included. *)

val of_xml_string : string -> Axml_core.Document.t

(**/**)

(* shared with Soap and Peer for forest-level conversion *)
val node_to_xml : locate:locator -> Axml_core.Document.t -> Axml_xml.Xml_tree.t

val of_xml_forest : Axml_xml.Xml_ns.env -> Axml_xml.Xml_tree.t list -> Axml_core.Document.forest
(* The nodes decoded in order under [env], layout dropped. *)
