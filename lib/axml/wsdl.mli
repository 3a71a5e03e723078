(** WSDL_int descriptors (Section 7): self-contained XML descriptions of
    a service's intensional signature — the function declaration plus
    the transitively referenced element types, so the receiving peer can
    type-check calls without any other context. *)

exception Wsdl_error of string

val describe :
  types:Axml_schema.Schema.t -> Axml_services.Service.t -> Axml_xml.Xml_tree.t
(** The descriptor carries every transitively referenced element type,
    plus the declaration of every function those types embed
    (intensional element types), so it stays self-contained.
    @raise Wsdl_error when a referenced type is missing from [types]. *)

val describe_string :
  ?pretty:bool -> types:Axml_schema.Schema.t -> Axml_services.Service.t -> string

val parse :
  ?service:string ->
  Axml_xml.Xml_tree.t -> Axml_schema.Schema.func * Axml_schema.Schema.t
(** The described function's declaration and the types the descriptor
    carries. [service] names the described function when the descriptor
    also carries auxiliary function declarations; without it a
    several-function descriptor is an error. *)

val parse_string :
  ?service:string -> string -> Axml_schema.Schema.func * Axml_schema.Schema.t

val import :
  Axml_schema.Schema.t ->
  Axml_schema.Schema.func * Axml_schema.Schema.t ->
  Axml_schema.Schema.t
(** Add the function, any missing element types and any auxiliary
    function declarations to a schema; existing element declarations
    win. @raise Wsdl_error on a function signature conflict. *)
