(** Hand-written XML parser covering the subset the Active XML layer
    needs: prolog, elements, attributes, character data with entity
    references, CDATA sections, comments, processing instructions.
    DOCTYPE declarations outside the root element are skipped; one
    inside an element is an error. Character references must name a
    Unicode scalar value ([&#[0-9]+;] or [&#x[0-9a-fA-F]+;]).

    Bytes are read one by one, and decoded only in names: a byte from
    0x80 up is never markup.
    - Whitespace is [' '], ['\t'], ['\n'] and ['\r'].
    - A name starts with a byte of [[A-Za-z_:]] and goes on with bytes
      of [[A-Za-z0-9_:.-]], or with a UTF-8 sequence whose code point
      XML 1.0 (fifth edition) allows as a NameStartChar (resp.
      NameChar). A malformed UTF-8 sequence in a name (a lone byte from
      0x80 up, a truncated or overlong sequence, a surrogate, a code
      point above U+10FFFF) is an error at its first byte.
    - In a start tag, each attribute is [name="value"] or
      [name='value'], with whitespace before the name and optional
      whitespace around the ['='].
    - Character data runs up to the next ['<']. An ['&'] starts an
      entity or character reference; a ['\r'], alone or followed by
      ['\n'], reads as one ['\n']; every other byte stands for itself.
    - An attribute value runs up to its closing quote. An ['&'] starts
      a reference, a literal ['<'] is an error, and every other byte,
      ['\r'] included, stands for itself. *)

type position = { line : int; column : int }
(** Lines end at ["\n"] only; the column counts bytes from 1. *)

exception Error of { pos : position; message : string }

val parse : string -> Xml_tree.t
(** Parse a whole document and return its root element. Leading and
    trailing comments, processing instructions and whitespace are
    allowed. @raise Error with a line/column position otherwise. *)

val parse_result : string -> (Xml_tree.t, string) result
(** {!parse}, its {!Error} worded by {!error_text}. *)

val error_text : position -> string -> string
(** ["line L, column C: message"]. *)

(** {1 The pull reader}

    The scanner behind {!parse}, one token at a time: {!parse} builds
    its tree from these tokens, and [Syntax] decodes them straight into
    a document. A token's name or text is a slice of the input, copied
    only when asked for; reading one allocates nothing but the strings
    its consumer takes. A reader checks everything but the nesting: the
    consumer keeps the open elements and hands each one's name to
    {!close}. Every function raises {!Error} where {!parse} would;
    [Eof] inside an element is the consumer's to refuse
    ({!unterminated}). *)

type reader

type token =
  | Start  (** a start tag, read up to its name; then {!attribute} *)
  | End  (** the ["</"] of a close tag; then {!close} *)
  | Text  (** character data, entities decoded, line ends normalized *)
  | Cdata  (** one or more adjacent CDATA sections, joined *)
  | Comment  (** {!text} is its body *)
  | Pi  (** a processing instruction *)
  | Eof  (** the end of the input *)

val reader : string -> reader
val input : reader -> string

val next_top : reader -> token
(** The next token outside the root element: [Start] or [Eof].
    Whitespace, comments, processing instructions and DOCTYPE
    declarations are skipped; character data and close tags are
    errors. *)

val next : reader -> token
(** The next token inside an element. *)

val attribute : reader -> bool
(** After [Start]: read the tag's next attribute, [false] when there is
    none left. Until the next call, {!name} is its name and {!value}
    its value. *)

val tag_end : reader -> string -> int -> int -> bool
(** After the last {!attribute}: read the tag's [">"] ([false]) or
    ["/>"] ([true]: an empty element, no [End] follows).
    [tag_end r s off len]: [s.[off .. off + len - 1]] is the element's
    name, for the message when neither follows. *)

val close : reader -> string -> int -> int -> unit
(** After [End]: read the close tag of the open element whose name is
    [s.[off .. off + len - 1]], compared in place. *)

(** The consumer's refusals of the nesting, raised as {!Error} at the
    reader's position in {!parse}'s words. *)

val no_root : reader -> 'a
(** [next_top] gave [Eof] before any root. *)

val multiple_roots : reader -> 'a
(** A second root element was read. *)

val unterminated : reader -> string -> int -> int -> 'a
(** [Eof] inside the open element [s.[off .. off + len - 1]]. *)

val name_start : reader -> int
val name_end : reader -> int
(** The input slice of the name of the current [Start] (until its first
    {!attribute}) or attribute. *)

val text : reader -> string
(** The decoded text of the current [Text], [Cdata] or [Comment]. *)

val text_is_whitespace : reader -> bool
(** Is that text whitespace only? Allocates nothing. *)

val value : reader -> string
(** The decoded value of the current attribute. *)

val value_decoded : reader -> bool
(** Did that value need decoding (an entity reference)? When it did
    not, it is the input slice {!value_start} .. {!value_end}. *)

val value_start : reader -> int
val value_end : reader -> int

val value_equals : reader -> string -> bool
(** Is the current attribute's value that string? Allocates nothing. *)

