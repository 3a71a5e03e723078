(* Hand-written XML parser covering the subset the Active XML layer needs:
   prolog, elements, attributes, character data with entity references,
   CDATA sections, comments and processing instructions. DOCTYPE
   declarations in the prolog are skipped.

   There is one scanner, and it is a pull reader: [next] moves the
   cursor over one token and records where its name or text lies in the
   input ([mark] .. [stop]), and the consumer copies out what it keeps.
   [parse] builds an [Xml_tree] from those tokens; [Syntax] decodes the
   same tokens straight into documents.

   The scanner allocates what its consumer takes, the cursor, and (for
   [parse]) one frame per open element with its children read so far;
   nothing per character or per probe. The cursor is a bare offset: line
   and column are a function of it, computed when an [Error] is raised.
   Prefix probes compare in place. Character data and attribute values
   are scanned as runs, and a run is copied at most once: a token that is
   one run is left in the input as a slice; a token broken by entity
   references or line ends (or split across CDATA sections) is assembled
   in a scratch buffer, which a parse creates only when it meets the
   first such token. Every [String.unsafe_get] below reads an index that
   its loop condition has already bounded by the input's length.

   Bytes are classified by [Byte_class.is]; it and the cursor helpers
   are inlined, so the scanning loops make no call per byte. A name
   byte from 0x80 up starts a UTF-8 sequence, decoded only there. *)

type position = { line : int; column : int }

exception Error of { pos : position; message : string }

(* [mark] .. [stop] is the slice of the input the last token left
   behind (see [next] and [attribute]); a negative [mark] says that the
   token's text was decoded into [scratch] instead. *)
type cursor = {
  input : string;
  mutable offset : int;
  mutable scratch : Buffer.t;
  mutable mark : int;
  mutable stop : int;
}

type reader = cursor

(* The scratch buffer of a cursor that has not needed one yet; never
   written. *)
let no_scratch = Buffer.create 1

let make_cursor input = { input; offset = 0; scratch = no_scratch; mark = 0; stop = 0 }

let reader = make_cursor
let input cur = cur.input

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

(* Does [s] hold [t.[off .. off + n - 1]] at offset [at]? *)
let slice_equal s at t off n =
  at + n <= String.length s
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (at + !i) = String.unsafe_get t (off + !i) do
    incr i
  done;
  !i = n

(* Does [s] hold [prefix] at offset [at]? *)
let sub_equal s at prefix = slice_equal s at prefix 0 (String.length prefix)

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
let rec name_end_at cur at =
  let s = cur.input in
  let i = ref at in
  while !i < String.length s && Byte_class.is Byte_class.name_char (String.unsafe_get s !i) do
    incr i
  done;
  if !i < String.length s && Char.code (String.unsafe_get s !i) >= 0x80 then
    let len = utf8_name_length cur ~start:false !i in
    if len = 0 then !i else name_end_at cur (!i + len)
  else !i

(* Move past the name at the cursor and return where it starts. *)
let scan_name cur =
  let start = cur.offset in
  let first = name_start_length cur start in
  if first = 0 then fail cur (Fmt.str "expected a name, found %C" (peek cur));
  cur.offset <- name_end_at cur (start + first);
  start

let read_name cur =
  let start = scan_name cur in
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
   literal '<', as XML 1.0 does). A run that is one plain slice of the
   input is left there ([false]); anything else is decoded into the
   scratch buffer ([true]). *)
let scan_run cur stop =
  let s = cur.input and n = String.length cur.input in
  let start = cur.offset in
  let i = run_end s start stop in
  if i >= n || String.unsafe_get s i = stop then begin
    cur.offset <- i;
    false
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
    true
  end

(* Character data: [mark] .. [stop] is the run, or [mark] is -1 and the
   scratch buffer holds it decoded. *)
let scan_text cur =
  let start = cur.offset in
  if scan_run cur '<' then cur.mark <- -1
  else begin
    cur.mark <- start;
    cur.stop <- cur.offset
  end

(* Move past the body up to [terminator] and past the terminator;
   return where the body ends. *)
let skip_until cur terminator what =
  let s = cur.input in
  let first = terminator.[0] in
  let i = ref cur.offset in
  while
    !i < String.length s
    && not (String.unsafe_get s !i = first && sub_equal s !i terminator)
  do
    incr i
  done;
  cur.offset <- !i;
  if eof cur then fail cur (Fmt.str "unterminated %s" what);
  cur.offset <- !i + String.length terminator;
  !i

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

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

type token = Start | End | Text | Cdata | Comment | Pi | Eof

(* A comment: [mark] .. [stop] is its body. The cursor sits on "<!--". *)
let scan_comment cur =
  advance_n cur 4;
  let start = cur.offset in
  cur.stop <- skip_until cur "-->" "comment";
  cur.mark <- start

(* Adjacent CDATA sections coalesce into one token: the printer splits
   "]]>" across two sections (the only way to say it in CDATA), so
   reading them back as a single node is what makes print-then-parse
   the identity. One section is a slice of the input; several are
   joined in the scratch buffer. The cursor sits on the first
   "<![CDATA[". *)
let scan_cdata cur =
  advance_n cur 9;
  let start = cur.offset in
  let stop = skip_until cur "]]>" "CDATA section" in
  if looking_at cur "<![CDATA[" then begin
    let buf = scratch cur in
    Buffer.add_substring buf cur.input start (stop - start);
    while looking_at cur "<![CDATA[" do
      advance_n cur 9;
      let start = cur.offset in
      let stop = skip_until cur "]]>" "CDATA section" in
      Buffer.add_substring buf cur.input start (stop - start)
    done;
    cur.mark <- -1
  end
  else begin
    cur.mark <- start;
    cur.stop <- stop
  end

(* A processing instruction: [mark] .. [stop] is its target, and its
   content runs from the whitespace after the target to the "?>" before
   the cursor. The cursor sits on "<?". *)
let scan_pi cur =
  advance_n cur 2;
  let start = scan_name cur in
  let target_end = cur.offset in
  skip_whitespace cur;
  ignore (skip_until cur "?>" "processing instruction");
  cur.mark <- start;
  cur.stop <- target_end

(* A start tag up to the end of its name, which [mark] .. [stop] holds.
   The cursor sits on the '<'. *)
let start_tag cur =
  advance cur;
  let start = scan_name cur in
  cur.mark <- start;
  cur.stop <- cur.offset;
  Start

(* The next token inside an element, dispatched on the byte after a
   '<'. *)
let next cur =
  if eof cur then Eof
  else if String.unsafe_get cur.input cur.offset <> '<' then begin
    scan_text cur;
    Text
  end
  else
    match peek2 cur with
    | '/' ->
      advance_n cur 2;
      End
    | '!' ->
      if looking_at cur "<!--" then begin
        scan_comment cur;
        Comment
      end
      else if looking_at cur "<![CDATA[" then begin
        scan_cdata cur;
        Cdata
      end
      else if looking_at cur "<!DOCTYPE" then
        (* a DOCTYPE belongs to the prolog; skipped in content, it would
           join the text around it into one node on a reprint *)
        fail cur "DOCTYPE declaration inside an element"
      else start_tag cur
    | '?' ->
      scan_pi cur;
      Pi
    | _ -> start_tag cur

(* Is the text token whitespace only? *)
let text_is_whitespace cur =
  if cur.mark < 0 then begin
    let b = cur.scratch in
    let i = ref 0 in
    while !i < Buffer.length b && Byte_class.is Byte_class.space (Buffer.nth b !i) do incr i done;
    !i = Buffer.length b
  end
  else begin
    let s = cur.input in
    let i = ref cur.mark in
    while !i < cur.stop && Byte_class.is Byte_class.space (String.unsafe_get s !i) do incr i done;
    !i >= cur.stop
  end

(* The next token outside the root element: [Start] or [Eof]. Leading
   and trailing comments, PIs, whitespace and DOCTYPE declarations are
   skipped. *)
let rec next_top cur =
  skip_whitespace cur;
  if eof cur then Eof
  else if looking_at cur "<!DOCTYPE" then begin
    advance_n cur 9;
    skip_doctype cur;
    next_top cur
  end
  else if looking_at cur "</" then fail cur "unexpected close tag"
  else if String.unsafe_get cur.input cur.offset <> '<' then begin
    scan_text cur;
    if text_is_whitespace cur then next_top cur
    else fail cur "character data outside the root element"
  end
  else
    match peek2 cur with
    | '!' when looking_at cur "<!--" ->
      scan_comment cur;
      next_top cur
    | '!' when looking_at cur "<![CDATA[" ->
      scan_cdata cur;
      fail cur "character data outside the root element"
    | '?' ->
      scan_pi cur;
      next_top cur
    | _ -> start_tag cur

(* The next attribute of the open start tag: [false], the cursor on the
   byte that ends the attribute list, when there is none. As in XML 1.0,
   whitespace precedes every attribute. [mark] .. [stop] is its name;
   [mark] is [-1 - start] when the value was decoded into the scratch
   buffer, and the value ends before the cursor's closing quote. *)
let attribute cur =
  let before = cur.offset in
  skip_whitespace cur;
  match peek cur with
  | '>' | '/' | '?' | '\000' -> false
  | _ ->
    if cur.offset = before && name_start_length cur cur.offset > 0 then
      fail cur "expected whitespace before an attribute";
    let start = scan_name cur in
    let name_end = cur.offset in
    skip_whitespace cur;
    if peek cur <> '=' then
      fail cur
        (Fmt.str "expected '=' after attribute %s"
           (String.sub cur.input start (name_end - start)));
    advance cur;
    skip_whitespace cur;
    let quote = peek cur in
    if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
    advance cur;
    let decoded = scan_run cur quote in
    if eof cur then fail cur "unterminated attribute value";
    advance cur;
    cur.mark <- (if decoded then -1 - start else start);
    cur.stop <- name_end;
    true

let tag_end cur s off len =
  if peek cur = '/' && peek2 cur = '>' then begin
    advance_n cur 2;
    true
  end
  else if peek cur = '>' then begin
    advance cur;
    false
  end
  else fail cur (Fmt.str "malformed start tag <%s>" (String.sub s off len))

let end_close_tag cur =
  skip_whitespace cur;
  if peek cur <> '>' then fail cur "malformed close tag";
  advance cur

(* The close tag of the open element [s.[off .. off + len - 1]], the
   cursor just past its "</". The name is checked in place; a mismatch
   reads the close name out, for the message. *)
let close cur s off len =
  let at = cur.offset in
  if slice_equal cur.input at s off len && name_end_at cur (at + len) = at + len then begin
    cur.offset <- at + len;
    end_close_tag cur
  end
  else begin
    let close = read_name cur in
    end_close_tag cur;
    fail cur (Fmt.str "mismatched close tag </%s> for <%s>" close (String.sub s off len))
  end

(* ------------------------------------------------------------------ *)
(* What a token holds                                                  *)
(* ------------------------------------------------------------------ *)

let name_start cur = if cur.mark < 0 then -1 - cur.mark else cur.mark
let name_end cur = cur.stop
let name cur =
  let start = name_start cur in
  String.sub cur.input start (cur.stop - start)

let text cur =
  if cur.mark < 0 then Buffer.contents cur.scratch
  else String.sub cur.input cur.mark (cur.stop - cur.mark)

(* After whitespace, the '=', whitespace and the opening quote. *)
let value_start cur =
  let s = cur.input in
  let i = ref cur.stop in
  while Byte_class.is Byte_class.space (String.unsafe_get s !i) do incr i done;
  incr i;
  while Byte_class.is Byte_class.space (String.unsafe_get s !i) do incr i done;
  !i + 1

let value_end cur = cur.offset - 1
let value_decoded cur = cur.mark < 0

let value cur =
  if cur.mark < 0 then Buffer.contents cur.scratch
  else
    let start = value_start cur in
    String.sub cur.input start (cur.offset - 1 - start)

let value_equals cur v =
  if cur.mark < 0 then begin
    let b = cur.scratch in
    Buffer.length b = String.length v
    &&
    let i = ref 0 in
    while !i < String.length v && Buffer.nth b !i = String.unsafe_get v !i do incr i done;
    !i = String.length v
  end
  else
    let start = value_start cur in
    cur.offset - 1 - start = String.length v
    && slice_equal cur.input start v 0 (String.length v)

let pi_content cur =
  let s = cur.input in
  let i = ref cur.stop in
  while Byte_class.is Byte_class.space (String.unsafe_get s !i) do incr i done;
  String.sub s !i (cur.offset - 2 - !i)

(* ------------------------------------------------------------------ *)
(* The tree builder                                                    *)
(* ------------------------------------------------------------------ *)

(* An open element: its name, attributes, the children read so far
   (reversed) and the element it is open in. *)
type frame = {
  name : string;
  attrs : Xml_tree.attribute list;
  mutable kids : Xml_tree.t list;
  parent : frame;
}

(* The parent of the root. *)
let rec outside = { name = ""; attrs = []; kids = []; parent = outside }

(* A start tag's attributes, in order, built front to back by a loop in
   constant stack ([@tail_mod_cons]). *)
let[@tail_mod_cons] rec attributes cur =
  if attribute cur then
    let name = name cur in
    let value = value cur in
    { Xml_tree.name; value } :: attributes cur
  else []

(* Build the element whose start tag [next] has just read, iteratively:
   the frames of the open elements replace the call-stack recursion, so
   nesting depth is bounded by the heap — a 100k-deep document parses
   without exhausting the stack. [start], [elements] and [emit] call
   each other in tail position only. *)
let rec start cur f =
  let name = name cur in
  let attrs = attributes cur in
  if tag_end cur name 0 (String.length name) then
    emit cur f (Xml_tree.Element { name; attrs; children = [] })
  else elements cur { name; attrs; kids = []; parent = f }

and elements cur f =
  match next cur with
  | Start -> start cur f
  | End ->
    close cur f.name 0 (String.length f.name);
    emit cur f.parent
      (Xml_tree.Element { name = f.name; attrs = f.attrs; children = List.rev f.kids })
  | Text -> emit cur f (Xml_tree.Text (text cur))
  | Cdata -> emit cur f (Xml_tree.Cdata (text cur))
  | Comment -> emit cur f (Xml_tree.Comment (text cur))
  | Pi ->
    let target = name cur in
    emit cur f (Xml_tree.pi target (String.trim (pi_content cur)))
  | Eof -> fail cur (Fmt.str "unterminated element <%s>" f.name)

(* A finished node: a child of the innermost open element, or, with none
   open, the element read. *)
and emit cur f node =
  if f == outside then node
  else begin
    f.kids <- node :: f.kids;
    elements cur f
  end

(* [parse input] parses a whole document and returns its root element.
   Leading and trailing comments, PIs and whitespace are allowed; a
   second root element is read before it is refused. *)
let parse input : Xml_tree.t =
  let cur = make_cursor input in
  match next_top cur with
  | Eof -> fail cur "no root element"
  | _ ->
    let root = start cur outside in
    (match next_top cur with
     | Eof -> root
     | _ ->
       ignore (start cur outside);
       fail cur "multiple root elements")

let parse_result input =
  match parse input with
  | tree -> Ok tree
  | exception Error { pos; message } ->
    Result.error (Fmt.str "line %d, column %d: %s" pos.line pos.column message)
