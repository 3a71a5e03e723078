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
