(* Serialization of XML trees, compact or indented.

   The printer is the inverse of [Xml_parser.parse] on parsed trees:
   every string a node can carry serializes to markup that reads back as
   the same node. In character data, '&', '<' and '>' are written as
   "&amp;", "&lt;" and "&gt;", and every C0 control byte but tab and
   newline as "&#N;". In an attribute value, '&', '<' and '"' are written
   as "&amp;", "&lt;" and "&quot;", and every C0 control byte as "&#N;".
   Every other byte is written as it is. Three cases need care:

   - "]]>" cannot appear inside one CDATA section; it is split across
     two adjacent sections (the parser coalesces them back).
   - A literal U+000D in character data would be normalized to "\n" by
     any conforming parser, so it is emitted as "&#13;" (likewise the
     other C0 controls, which are not legal literally).
   - In attribute values, tab/newline/CR would be normalized to spaces;
     they are emitted as numeric character references. *)

(* "&#N;" for a C0 control byte (N < 32). *)
let add_char_ref buf c =
  let code = Char.code c in
  Buffer.add_string buf "&#";
  if code >= 10 then Buffer.add_char buf (Char.unsafe_chr (48 + (code / 10)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (code mod 10)));
  Buffer.add_char buf ';'

(* The bytes rewritten in an attribute value ([attr]) or in character
   data: [Byte_class.attr_escape] and [Byte_class.text_escape] say
   which. *)
let[@inline] escape_class ~attr =
  if attr then Byte_class.attr_escape else Byte_class.text_escape

(* Append [s] escaped, plain runs copied whole. *)
let add_escaped ~attr buf s =
  let cls = escape_class ~attr in
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if Byte_class.is cls c then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> add_char_ref buf c
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

(* Does [s] hold a byte of class [cls]? *)
let exists cls s =
  let i = ref 0 in
  while !i < String.length s && not (Byte_class.is cls (String.unsafe_get s !i)) do incr i done;
  !i < String.length s

(* [s] itself when no byte needs escaping. *)
let escaped ~attr s =
  if not (exists (escape_class ~attr) s) then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    add_escaped ~attr buf s;
    Buffer.contents buf
  end

let escape_text s = escaped ~attr:false s
let escape_attr s = escaped ~attr:true s
let add_text buf s = add_escaped ~attr:false buf s
let add_attr buf s = add_escaped ~attr:true buf s

(* Emit [s] as CDATA, splitting every "]]>" across a section boundary:
   "a]]>b" becomes "<![CDATA[a]]]]><![CDATA[>b]]>". *)
let add_cdata buf s =
  Buffer.add_string buf "<![CDATA[";
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if
      !i + 2 < n
      && s.[!i] = ']' && s.[!i + 1] = ']' && s.[!i + 2] = '>'
    then begin
      Buffer.add_string buf "]]]]><![CDATA[>";
      i := !i + 3
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf "]]>"

let rec add_attrs buf = function
  | [] -> ()
  | (a : Xml_tree.attribute) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf a.name;
    Buffer.add_string buf "=\"";
    add_escaped ~attr:true buf a.value;
    Buffer.add_char buf '"';
    add_attrs buf rest

let add_leaf buf (node : Xml_tree.t) =
  match node with
  | Text s -> add_escaped ~attr:false buf s
  | Cdata s -> add_cdata buf s
  | Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Pi { target; content } ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf target;
    if content <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf content
    end;
    Buffer.add_string buf "?>"
  | Element _ -> invalid_arg "add_leaf"

let add_open buf (e : Xml_tree.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.name;
  add_attrs buf e.attrs

let add_close buf name =
  Buffer.add_string buf "</";
  Buffer.add_string buf name;
  Buffer.add_char buf '>'

(* The tree walks are iterative: [nodes] are the siblings still to
   print at the current level, and each open element is a frame holding
   its name and the siblings to print after it closes. An explicit stack
   instead of recursion keeps printing of very deep documents off the
   call stack; a leaf or an empty element costs no frame. *)
type frame = { name : string; after : Xml_tree.t list }

let rec compact buf (nodes : Xml_tree.t list) stack =
  match (nodes, stack) with
  | [], [] -> ()
  | [], f :: stack ->
    add_close buf f.name;
    compact buf f.after stack
  | Element e :: rest, _ ->
    add_open buf e;
    if e.children = [] then begin
      Buffer.add_string buf "/>";
      compact buf rest stack
    end
    else begin
      Buffer.add_char buf '>';
      compact buf e.children ({ name = e.name; after = rest } :: stack)
    end
  | leaf :: rest, _ ->
    add_leaf buf leaf;
    compact buf rest stack

(* Both printers, and [Syntax]'s printer of documents, fill the one
   spare buffer. *)
let spare = Spare_buffer.create ()

let to_string node =
  let buf = Spare_buffer.take spare in
  compact buf [ node ] [];
  Spare_buffer.contents spare buf

(* Indented output: safe only for "data-oriented" XML where surrounding
   whitespace is not significant (always true for this system's trees).
   [indent] is the depth of [nodes]. *)
let add_indent buf indent = for _ = 1 to indent do Buffer.add_string buf "  " done

let rec pretty buf indent (nodes : Xml_tree.t list) stack =
  match (nodes, stack) with
  | [], [] -> ()
  | [], f :: stack ->
    add_indent buf (indent - 1);
    add_close buf f.name;
    Buffer.add_char buf '\n';
    pretty buf (indent - 1) f.after stack
  | Element e :: rest, _ ->
    add_indent buf indent;
    add_open buf e;
    (match e.children with
     | [] ->
       Buffer.add_string buf "/>\n";
       pretty buf indent rest stack
     | [ Text s ] ->
       Buffer.add_char buf '>';
       add_escaped ~attr:false buf s;
       add_close buf e.name;
       Buffer.add_char buf '\n';
       pretty buf indent rest stack
     | children ->
       Buffer.add_string buf ">\n";
       pretty buf (indent + 1) children ({ name = e.name; after = rest } :: stack))
  | leaf :: rest, _ ->
    add_indent buf indent;
    add_leaf buf leaf;
    Buffer.add_char buf '\n';
    pretty buf indent rest stack

let to_pretty_string ?(xml_decl = false) node =
  let buf = Spare_buffer.take spare in
  if xml_decl then Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  pretty buf 0 [ node ] [];
  Spare_buffer.contents spare buf

let pp ppf node = Fmt.string ppf (to_string node)
