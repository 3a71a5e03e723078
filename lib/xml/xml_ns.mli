(** XML namespace resolution — the mechanism the paper uses to mark
    intensional call nodes (elements in the
    [http://www.activexml.com/ns/int] namespace, Section 7). *)

type env
(** Prefix-to-URI bindings in scope; [""] is the default namespace. *)

val empty_env : env

val split_name : string -> string option * string
(** ["prefix:local"] to [(Some "prefix", "local")]. *)

val extend : env -> Xml_tree.element -> env
(** Add the [xmlns] / [xmlns:p] declarations of an element; [env]
    itself when the element has no attributes. *)

val expanded_name : env -> Xml_tree.element -> string option * string
(** Namespace URI (if any) and local name of an element under [env],
    the environment in force at the element: [env] must already hold
    the element's own declarations, as {!extend} and {!iter_elements}
    give it. *)

val expanded_attr_name : env -> Xml_tree.attribute -> string option * string
(** Attributes without a prefix have no namespace (per the XML spec). *)

val iter_elements : (env -> Xml_tree.element -> unit) -> Xml_tree.t -> unit
(** Walk the tree with the namespace environment in force at each
    element. *)

val element_is : env -> uri:string -> local:string -> Xml_tree.element -> bool
(** Does the element live in namespace [uri] with local name [local]?
    [env] is as for {!expanded_name}. *)
