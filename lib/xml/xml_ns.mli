(** XML namespace resolution — the mechanism the paper uses to mark
    intensional call nodes (elements in the
    [http://www.activexml.com/ns/int] namespace, Section 7). *)

type env
(** The [xmlns] / [xmlns:p] declarations in force, innermost first, one
    per bound prefix. A prefix is compared in place against them, so
    resolving a name allocates nothing. *)

val empty_env : env

exception Too_many_bindings

val max_bindings : int
(** 64: the most prefixes (the default namespace included) bound at
    once. A lookup scans the bindings in force, so this bound is what
    keeps resolution linear in the document; {!extend} raises
    {!Too_many_bindings} past it. *)

val prefix_end : string -> int
(** The index of the [':'] that ends a name's prefix, [-1] when the name
    has none. Found once per element, it serves both {!name_is} and
    {!local_name}. *)

val prefix_end_sub : string -> int -> int -> int
(** [prefix_end_sub s off stop]: {!prefix_end} of the name
    [s.[off .. stop - 1]], an index into [s]. *)

val local_name : string -> int -> string
(** [local_name name (prefix_end name)]: ["prefix:local"] to ["local"];
    the name itself (no allocation) when it has no prefix. *)

val extend : env -> Xml_tree.element -> env
(** Add the [xmlns] / [xmlns:p] declarations of an element; [env]
    itself, with no allocation, when the element declares nothing.
    @raise Too_many_bindings past {!max_bindings}. *)

val declare_attribute : known:Xml_tree.attribute -> env -> Xml_parser.reader -> env
(** {!extend} by the reader's current attribute, read in place: [env]
    itself when it is no [xmlns] declaration or binds its prefix to the
    URI already bound there, with no allocation; [known] itself (not a
    copy) when the declaration is [known].
    @raise Too_many_bindings as {!extend}. *)

val expanded_name : env -> Xml_tree.element -> string option * string
(** Namespace URI (if any) and local name of an element under [env],
    the environment in force at the element: [env] must already hold
    the element's own declarations, as {!extend} and {!iter_elements}
    give it. *)

val iter_elements : (env -> Xml_tree.element -> unit) -> Xml_tree.t -> unit
(** Walk the tree with the namespace environment in force at each
    element. @raise Too_many_bindings as {!extend}. *)

val name_is : env -> uri:string -> local:string -> string -> int -> bool
(** [name_is env ~uri ~local name (prefix_end name)]: does an element of
    that name, under [env] (as for {!expanded_name}), live in namespace
    [uri] with local name [local]? Allocates nothing. *)

val name_is_sub : env -> uri:string -> local:string -> string -> int -> int -> int -> bool
(** [name_is_sub env ~uri ~local s off stop c]: {!name_is} on the name
    [s.[off .. stop - 1]], whose prefix ends at [c]
    ([prefix_end_sub s off stop]). *)

val element_is : env -> uri:string -> local:string -> Xml_tree.element -> bool
(** {!name_is} on the element's name. *)
