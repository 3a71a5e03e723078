(* Hand-written XML parser covering the subset the Active XML layer needs:
   prolog, elements, attributes, character data with entity references,
   CDATA sections, comments and processing instructions. DOCTYPE
   declarations in the prolog are skipped.

   The scanner allocates what it returns, the cursor, and the stack of
   open elements with their children read so far; nothing per character
   or per probe. The cursor is a bare offset: line and column are a
   function of it, computed when an [Error] is raised. Prefix probes
   compare in place. Character data and attribute values are scanned as
   runs, and a run is copied once: a token that is one run becomes one
   [String.sub]; a token broken by entity references or line ends (or
   split across CDATA sections) is assembled in a scratch buffer, which
   a parse creates only when it meets the first such token. Attribute
   lists are built in order. Every [String.unsafe_get] below reads an
   index that its loop condition has already bounded by the input's
   length.

   Bytes are classified by [Byte_class.is]; it and the cursor helpers
   are inlined, so the scanning loops make no call per byte. A name
   byte from 0x80 up starts a UTF-8 sequence, decoded only there. *)

type position = { line : int; column : int }

exception Error of { pos : position; message : string }

type cursor = { input : string; mutable offset : int; mutable scratch : Buffer.t }

(* The scratch buffer of a cursor that has not needed one yet; never
   written. *)
let no_scratch = Buffer.create 1

let make_cursor input = { input; offset = 0; scratch = no_scratch }

(* The cursor's scratch buffer, empty. *)
let scratch cur =
  if cur.scratch == no_scratch then cur.scratch <- Buffer.create 64
  else Buffer.clear cur.scratch;
  cur.scratch

(* Lines end at '\n' (so "\r\n" is one line end and a bare '\r' none);
   the column counts bytes from 1. *)
let position cur =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min cur.offset (String.length cur.input) - 1 do
    if String.unsafe_get cur.input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = cur.offset - !bol + 1 }

let fail cur message = raise (Error { pos = position cur; message })

let[@inline] eof cur = cur.offset >= String.length cur.input

let[@inline] peek cur =
  if eof cur then '\000' else String.unsafe_get cur.input cur.offset

let[@inline] peek2 cur =
  if cur.offset + 1 >= String.length cur.input then '\000'
  else String.unsafe_get cur.input (cur.offset + 1)

let[@inline] advance cur = if not (eof cur) then cur.offset <- cur.offset + 1

(* Not [Stdlib.min]: polymorphic, it is a C call at every close tag. *)
let advance_n cur n =
  let o = cur.offset + n and len = String.length cur.input in
  cur.offset <- (if o < len then o else len)

(* Does [s] hold [prefix] at offset [at]? *)
let sub_equal s at prefix =
  let n = String.length prefix in
  at + n <= String.length s
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (at + !i) = String.unsafe_get prefix !i do
    incr i
  done;
  !i = n

let looking_at cur prefix = sub_equal cur.input cur.offset prefix

let skip_whitespace cur =
  let s = cur.input in
  let i = ref cur.offset in
  while !i < String.length s && Byte_class.is Byte_class.space (String.unsafe_get s !i) do
    incr i
  done;
  cur.offset <- !i

(* Names beyond ASCII (XML 1.0, fifth edition): the code points of
   NameStartChar, and those NameChar adds. *)
let is_name_start_code c =
  (c >= 0xC0 && c <= 0xD6) || (c >= 0xD8 && c <= 0xF6) || (c >= 0xF8 && c <= 0x2FF)
  || (c >= 0x370 && c <= 0x37D) || (c >= 0x37F && c <= 0x1FFF)
  || (c >= 0x200C && c <= 0x200D) || (c >= 0x2070 && c <= 0x218F)
  || (c >= 0x2C00 && c <= 0x2FEF) || (c >= 0x3001 && c <= 0xD7FF)
  || (c >= 0xF900 && c <= 0xFDCF) || (c >= 0xFDF0 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0xEFFFF)

let is_name_code c =
  is_name_start_code c || c = 0xB7 || (c >= 0x300 && c <= 0x36F)
  || (c >= 0x203F && c <= 0x2040)

(* The length of the well-formed UTF-8 sequence at [i] (a byte from 0x80
   up), 0 if it is malformed: a continuation or overlong lead byte, a
   bad or missing continuation byte, a surrogate or a code point above
   U+10FFFF. *)
let utf8_length s i =
  let n = String.length s in
  let byte k = if i + k < n then Char.code (String.unsafe_get s (i + k)) else 0 in
  let cont k = byte k land 0xC0 = 0x80 in
  let b0 = byte 0 and b1 = byte 1 in
  if b0 >= 0xC2 && b0 <= 0xDF then if cont 1 then 2 else 0
  else if b0 >= 0xE0 && b0 <= 0xEF then
    let lo = if b0 = 0xE0 then 0xA0 else 0x80 and hi = if b0 = 0xED then 0x9F else 0xBF in
    if b1 >= lo && b1 <= hi && cont 2 then 3 else 0
  else if b0 >= 0xF0 && b0 <= 0xF4 then
    let lo = if b0 = 0xF0 then 0x90 else 0x80 and hi = if b0 = 0xF4 then 0x8F else 0xBF in
    if b1 >= lo && b1 <= hi && cont 2 && cont 3 then 4 else 0
  else 0

(* The code point of the well-formed sequence of [len] bytes at [i]. *)
let utf8_code s i len =
  let b k = Char.code (String.unsafe_get s (i + k)) land 0x3F in
  let b0 = Char.code (String.unsafe_get s i) in
  match len with
  | 2 -> ((b0 land 0x1F) lsl 6) lor b 1
  | 3 -> ((b0 land 0x0F) lsl 12) lor (b 1 lsl 6) lor b 2
  | _ -> ((b0 land 0x07) lsl 18) lor (b 1 lsl 12) lor (b 2 lsl 6) lor b 3

(* The length of the UTF-8 name character at [at], a byte from 0x80 up
   ([start]: one that may start a name), 0 if its code point is none; a
   malformed sequence is an error there. *)
let utf8_name_length cur ~start at =
  let s = cur.input in
  let len = utf8_length s at in
  if len = 0 then begin
    cur.offset <- at;
    fail cur "malformed UTF-8 in a name"
  end;
  let code = utf8_code s at len in
  if (if start then is_name_start_code code else is_name_code code) then len else 0

(* The length of the name start character at [at], 0 if there is none. *)
let[@inline] name_start_length cur at =
  if at >= String.length cur.input then 0
  else
    let c = String.unsafe_get cur.input at in
    if Byte_class.is Byte_class.name_start c then 1
    else if Char.code c >= 0x80 then utf8_name_length cur ~start:true at
    else 0

(* Offset just past the name characters that start at [at] (at most
   [at]). *)
let rec name_end cur at =
  let s = cur.input in
  let i = ref at in
  while !i < String.length s && Byte_class.is Byte_class.name_char (String.unsafe_get s !i) do
    incr i
  done;
  if !i < String.length s && Char.code (String.unsafe_get s !i) >= 0x80 then
    let len = utf8_name_length cur ~start:false !i in
    if len = 0 then !i else name_end cur (!i + len)
  else !i

let read_name cur =
  let start = cur.offset in
  let first = name_start_length cur start in
  if first = 0 then fail cur (Fmt.str "expected a name, found %C" (peek cur));
  cur.offset <- name_end cur (start + first);
  String.sub cur.input start (cur.offset - start)

let digit_value base c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' when base = 16 -> Char.code c - 87
  | 'A' .. 'F' when base = 16 -> Char.code c - 55
  | _ -> -1

(* The Unicode scalar value of a character reference body [#digits] or
   [#xhexdigits] held in [s] between [start] and [stop]; -1 if the body
   is anything else, names a surrogate or lies above U+10FFFF. *)
let char_ref_code s start stop =
  let base, first =
    if stop > start + 1 && s.[start + 1] = 'x' then (16, start + 2) else (10, start + 1)
  in
  if first >= stop then -1
  else begin
    let code = ref 0 and i = ref first in
    while !i < stop && !code >= 0 do
      let d = digit_value base (String.unsafe_get s !i) in
      code := if d < 0 || !code > 0x10FFFF then -1 else (!code * base) + d;
      incr i
    done;
    let code = !code in
    if code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF) then -1 else code
  end

(* Is the entity body between [start] and [stop] the name [name]? *)
let body_is s start stop name =
  stop - start = String.length name && sub_equal s start name

(* Decode the entity reference at '&' into [buf]. *)
let add_entity buf cur =
  let s = cur.input in
  let start = cur.offset + 1 in
  let stop = ref start in
  while !stop < String.length s && String.unsafe_get s !stop <> ';' do incr stop done;
  let stop = !stop in
  if stop >= String.length s then begin
    cur.offset <- stop;
    fail cur "unterminated entity reference"
  end;
  cur.offset <- stop + 1;
  if body_is s start stop "amp" then Buffer.add_char buf '&'
  else if body_is s start stop "lt" then Buffer.add_char buf '<'
  else if body_is s start stop "gt" then Buffer.add_char buf '>'
  else if body_is s start stop "quot" then Buffer.add_char buf '"'
  else if body_is s start stop "apos" then Buffer.add_char buf '\''
  else if stop - start > 1 && s.[start] = '#' then begin
    let code = char_ref_code s start stop in
    if code < 0 then
      fail cur (Fmt.str "bad character reference &%s;" (String.sub s start (stop - start)));
    Buffer.add_utf_8_uchar buf (Uchar.unsafe_of_int code)
  end
  else fail cur (Fmt.str "unknown entity &%s;" (String.sub s start (stop - start)))

(* The offset of the first byte at or after [i] that ends a plain run
   (the input's length if none does): '<', '&' or '\r' in character data
   ([stop] = '<'), '&', '<' or the closing quote [stop] in an attribute
   value. *)
let run_end s i stop =
  let n = String.length s in
  let i = ref i in
  if stop = '<' then
    while !i < n && not (Byte_class.is Byte_class.text_stop (String.unsafe_get s !i)) do incr i done
  else
    while
      !i < n
      &&
      let c = String.unsafe_get s !i in
      c <> stop && c <> '&' && c <> '<'
    do
      incr i
    done;
  !i

(* Character data up to the next '<' (or the end of input), or an
   attribute value up to its closing [quote]: [stop] is '<' for the one
   and the quote for the other. Entity references are decoded; in
   character data the spec's line-end normalization turns "\r\n" and a
   bare "\r" into "\n" (attribute values keep their bytes, and refuse a
   literal '<', as XML 1.0 does). *)
let read_run cur stop =
  let s = cur.input and n = String.length cur.input in
  let start = cur.offset in
  let i = run_end s start stop in
  if i >= n || String.unsafe_get s i = stop then begin
    cur.offset <- i;
    String.sub s start (i - start)
  end
  else begin
    let buf = scratch cur in
    Buffer.add_substring buf s start (i - start);
    cur.offset <- i;
    while (not (eof cur)) && String.unsafe_get s cur.offset <> stop do
      let at = cur.offset in
      match String.unsafe_get s at with
      | '&' -> add_entity buf cur
      | '\r' when stop = '<' ->
        Buffer.add_char buf '\n';
        cur.offset <-
          (if at + 1 < n && String.unsafe_get s (at + 1) = '\n' then at + 2 else at + 1)
      | '<' -> fail cur "'<' in an attribute value"
      | _ ->
        let i = run_end s (at + 1) stop in
        Buffer.add_substring buf s at (i - at);
        cur.offset <- i
    done;
    Buffer.contents buf
  end

let read_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  advance cur;
  let value = read_run cur quote in
  if eof cur then fail cur "unterminated attribute value";
  advance cur;
  value

(* The attributes of a start tag, in order, leaving the cursor past the
   whitespace after the last one. As in XML 1.0, whitespace precedes
   every attribute. The list is built front to back by a loop in
   constant stack ([@tail_mod_cons]). *)
let[@tail_mod_cons] rec read_attributes cur =
  let before = cur.offset in
  skip_whitespace cur;
  match peek cur with
  | '>' | '/' | '?' | '\000' -> []
  | _ ->
    if cur.offset = before && name_start_length cur cur.offset > 0 then
      fail cur "expected whitespace before an attribute";
    let name = read_name cur in
    skip_whitespace cur;
    if peek cur <> '=' then fail cur (Fmt.str "expected '=' after attribute %s" name);
    advance cur;
    skip_whitespace cur;
    let value = read_quoted cur in
    { Xml_tree.name; value } :: read_attributes cur

(* The body up to [terminator], leaving the cursor past it. *)
let read_until cur terminator what =
  let s = cur.input in
  let start = cur.offset in
  let first = terminator.[0] in
  let i = ref start in
  while
    !i < String.length s
    && not (String.unsafe_get s !i = first && sub_equal s !i terminator)
  do
    incr i
  done;
  cur.offset <- !i;
  if eof cur then fail cur (Fmt.str "unterminated %s" what);
  cur.offset <- !i + String.length terminator;
  String.sub s start (!i - start)

let skip_doctype cur =
  (* skip until the matching '>' allowing one level of [...] *)
  let depth = ref 1 in
  while !depth > 0 do
    if eof cur then fail cur "unterminated DOCTYPE";
    (match peek cur with
     | '<' -> incr depth
     | '>' -> decr depth
     | _ -> ());
    advance cur
  done

(* Adjacent CDATA sections coalesce into one node: the printer splits
   "]]>" across two sections (the only way to say it in CDATA), so
   reading them back as a single node is what makes print-then-parse
   the identity. The cursor sits on the first "<![CDATA[". *)
let read_cdata cur =
  let buf = scratch cur in
  while looking_at cur "<![CDATA[" do
    advance_n cur 9;
    Buffer.add_string buf (read_until cur "]]>" "CDATA section")
  done;
  Buffer.contents buf

(* A markup leaf at a '<': comment, CDATA section(s) or processing
   instruction, told apart by the byte after the '<'. [None] when the
   cursor sits on a tag (open or close) or a DOCTYPE. *)
let markup_leaf cur : Xml_tree.t option =
  match peek2 cur with
  | '!' ->
    if looking_at cur "<!--" then begin
      advance_n cur 4;
      Some (Xml_tree.Comment (read_until cur "-->" "comment"))
    end
    else if looking_at cur "<![CDATA[" then Some (Xml_tree.Cdata (read_cdata cur))
    else None
  | '?' ->
    advance_n cur 2;
    let target = read_name cur in
    skip_whitespace cur;
    let content = read_until cur "?>" "processing instruction" in
    Some (Xml_tree.pi target (String.trim content))
  | _ -> None

(* A leaf token at the cursor: a markup leaf or character data. [None]
   when the cursor sits on a tag, a DOCTYPE, or at end of input. *)
let try_leaf cur : Xml_tree.t option =
  if eof cur then None
  else if String.unsafe_get cur.input cur.offset = '<' then markup_leaf cur
  else Some (Xml_tree.Text (read_run cur '<'))

(* An open element: its name, attributes and the children read so far
   (reversed). *)
type frame = {
  name : string;
  attrs : Xml_tree.attribute list;
  mutable kids : Xml_tree.t list;
}

let end_close_tag cur =
  skip_whitespace cur;
  if peek cur <> '>' then fail cur "malformed close tag";
  advance cur

(* The close tag of the open element [name], the cursor just past its
   "</". The name is checked in place; a mismatch reads the close name
   out, for the message. *)
let close_tag cur name =
  let at = cur.offset and len = String.length name in
  if sub_equal cur.input at name && name_end cur (at + len) = at + len then begin
    cur.offset <- at + len;
    end_close_tag cur
  end
  else begin
    let close = read_name cur in
    end_close_tag cur;
    fail cur (Fmt.str "mismatched close tag </%s> for <%s>" close name)
  end

(* Parse one element, iteratively: an explicit stack of open elements
   replaces the call-stack recursion, so nesting depth is bounded by the
   heap — a 100k-deep document parses without exhausting the stack.
   [elements] and [emit] call each other in tail position only. *)
let rec elements cur (stack : frame list) : Xml_tree.t =
  if eof cur then begin
    match stack with
    | f :: _ -> fail cur (Fmt.str "unterminated element <%s>" f.name)
    | [] -> fail cur "expected an element"
  end
  else if String.unsafe_get cur.input cur.offset <> '<' then
    emit cur stack (Xml_tree.Text (read_run cur '<'))
  else if peek2 cur = '/' then begin
    advance_n cur 2;
    match stack with
    | f :: rest ->
      close_tag cur f.name;
      emit cur rest
        (Xml_tree.Element { name = f.name; attrs = f.attrs; children = List.rev f.kids })
    | [] ->
      let close = read_name cur in
      end_close_tag cur;
      fail cur (Fmt.str "unexpected close tag </%s>" close)
  end
  else if peek2 cur = '!' && looking_at cur "<!DOCTYPE" then
    (* a DOCTYPE belongs to the prolog; skipped in content, it would
       join the text around it into one node on a reprint *)
    fail cur "DOCTYPE declaration inside an element"
  else
    match markup_leaf cur with
    | Some node -> emit cur stack node
    | None ->
      (* an open tag *)
      advance cur; (* '<' *)
      let name = read_name cur in
      let attrs = read_attributes cur in
      if peek cur = '/' && peek2 cur = '>' then begin
        advance_n cur 2;
        emit cur stack (Xml_tree.Element { name; attrs; children = [] })
      end
      else if peek cur = '>' then begin
        advance cur;
        elements cur ({ name; attrs; kids = [] } :: stack)
      end
      else fail cur (Fmt.str "malformed start tag <%s>" name)

(* A finished node: a child of the innermost open element, or, with none
   open, the element read. *)
and emit cur stack node =
  match stack with
  | f :: _ ->
    f.kids <- node :: f.kids;
    elements cur stack
  | [] -> node

(* The document's top level up to the end of input: [root] is the root
   element once read. Leading and trailing comments, PIs and whitespace
   are allowed. *)
let rec top_level cur root =
  skip_whitespace cur;
  if eof cur then root
  else if looking_at cur "<!DOCTYPE" then begin
    advance_n cur 9;
    skip_doctype cur;
    top_level cur root
  end
  else if looking_at cur "</" then fail cur "unexpected close tag"
  else
    match try_leaf cur with
    | Some (Xml_tree.Text s) when Xml_tree.is_whitespace s -> top_level cur root
    | Some (Xml_tree.Comment _ | Xml_tree.Pi _) -> top_level cur root
    | Some (Xml_tree.Text _ | Xml_tree.Cdata _ | Xml_tree.Element _) ->
      fail cur "character data outside the root element"
    | None ->
      let e = elements cur [] in
      (match root with
       | None -> top_level cur (Some e)
       | Some _ -> fail cur "multiple root elements")

(* [parse input] parses a whole document and returns its root element. *)
let parse input : Xml_tree.t =
  let cur = make_cursor input in
  match top_level cur None with
  | Some e -> e
  | None -> fail cur "no root element"

let parse_result input =
  match parse input with
  | tree -> Ok tree
  | exception Error { pos; message } ->
    Result.error (Fmt.str "line %d, column %d: %s" pos.line pos.column message)
