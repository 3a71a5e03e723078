(** The byte classes of the XML scanner and printer: one 256-entry
    table, built once when the library is initialised. Each class is a
    bit; a byte's entry holds the bits of every class it belongs to.

    The scanning loops of [Xml_parser], [Xml_print] and [Xml_tree] ask
    about a byte through {!is}, which the build inlines into them (the
    workspace compiles without [-opaque], see DESIGN.md), so they pay no
    call per byte. *)

val space : int
(** [' '], ['\t'], ['\n'] and ['\r']: the whitespace of XML. *)

val name_start : int
(** The first byte of a name: [[A-Za-z_:]]. *)

val name_char : int
(** A later byte of a name: [[A-Za-z0-9_:.-]]. *)

val text_stop : int
(** The bytes that end a plain run of character data: ['<'], ['&'] and
    ['\r'] (which is normalised to ['\n']). *)

val text_escape : int
(** The bytes [Xml_print] rewrites in character data: ['&'], ['<'],
    ['>'] and every C0 control byte but ['\t'] and ['\n']. *)

val attr_escape : int
(** The bytes [Xml_print] rewrites in an attribute value: ['&'], ['<'],
    ['"'] and every C0 control byte. *)

val is : int -> char -> bool
(** [is cls c]: byte [c] is in class [cls]. One load and one mask. *)
