(** Serialization of XML trees. *)

val escape_text : string -> string
(** [s] as character data: ['&'], ['<'] and ['>'] become entity
    references and every C0 control byte but ['\t'] and ['\n'] a
    character reference ([&#N;]). [s] itself when nothing changes. *)

val escape_attr : string -> string
(** [s] as a double-quoted attribute value: ['&'], ['<'] and ['"']
    become entity references and every C0 control byte a character
    reference ([&#N;]). [s] itself when nothing changes. *)

val add_text : Buffer.t -> string -> unit
(** [add_text buf s] appends {!escape_text}[ s], escaping straight
    into [buf] (plain runs copied whole, no intermediate string). *)

val add_attr : Buffer.t -> string -> unit
(** [add_attr buf s] appends {!escape_attr}[ s], straight into [buf]. *)

val spare : Spare_buffer.t
(** The printers' one spare buffer; a printer of another
    representation that writes the same bytes fills it too. *)

val to_string : Xml_tree.t -> string
(** Compact, single-line serialization. *)

val to_pretty_string : ?xml_decl:bool -> Xml_tree.t -> string
(** Indented serialization; safe for data-oriented XML where
    surrounding whitespace is insignificant (always true for this
    system's trees). *)

val pp : Xml_tree.t Fmt.t
