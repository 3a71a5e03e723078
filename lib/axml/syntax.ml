(* The XML wire syntax of intensional documents (Section 7): embedded
   calls are elements in the http://www.activexml.com/ns/int namespace,

     <int:fun endpointURL="..." methodName="Get_Temp" namespaceURI="...">
       <int:params>
         <int:param><city>Paris</city></int:param>
       </int:params>
     </int:fun>

   [to_xml] and [of_xml] convert between [Axml_core.Document.t] and this
   representation. *)

module D = Axml_core.Document
module T = Axml_xml.Xml_tree
module Ns = Axml_xml.Xml_ns
module P = Axml_xml.Xml_parser
module Sym_id = Axml_schema.Sym_id
module Dense = Axml_schema.Auto.Dfa.Dense
module Validate = Axml_core.Validate

let axml_ns = "http://www.activexml.com/ns/int"

exception Syntax_error of string

(* ------------------------------------------------------------------ *)
(* Document -> XML                                                     *)
(* ------------------------------------------------------------------ *)

(* The attributes of a call: every call is local, and the constant
   attributes are built once, so a call allocates its methodName and
   three list cells. Every call node carries its own namespace
   declaration, so any subtree extracted by a query stays a well-formed
   intensional fragment. *)
let int_declaration = T.attr "xmlns:int" axml_ns
let local_endpoint = T.attr "endpointURL" "local:"
let local_namespace = [ T.attr "namespaceURI" "urn:axml:local" ]

let call_attrs name =
  int_declaration :: local_endpoint :: T.attr "methodName" name :: local_namespace

let rec to_xml (doc : D.t) : T.t =
  match doc with
  | D.Data value -> T.Text value
  | D.Elem { label; children; _ } ->
    T.Element { name = label; attrs = []; children = forest_to_xml children }
  | D.Call { name; params; _ } ->
    let attrs = call_attrs name in
    let children =
      match params with
      | [] -> []
      | _ -> [ T.Element { name = "int:params"; attrs = []; children = params_to_xml params } ]
    in
    T.Element { name = "int:fun"; attrs; children }

and[@tail_mod_cons] forest_to_xml (docs : D.t list) : T.t list =
  match docs with
  | [] -> []
  | d :: rest -> to_xml d :: forest_to_xml rest

and[@tail_mod_cons] params_to_xml (params : D.t list) : T.t list =
  match params with
  | [] -> []
  | p :: rest ->
    T.Element { name = "int:param"; attrs = []; children = [ to_xml p ] }
    :: params_to_xml rest

(* The compact printer: [Document.t] straight to the bytes
   [Xml_print.to_string (to_xml d)] gives, with no tree between, into
   [Xml_print]'s spare buffer and through its escapers. A call's
   constant attributes are one literal each. It recurses on the
   document's depth as [to_xml] does, and loops over siblings. The
   indented mode, which no traffic between peers takes, goes through
   the tree. *)
module Pr = Axml_xml.Xml_print
module Spare_buffer = Axml_xml.Spare_buffer

let local_call_open =
  "<int:fun xmlns:int=\"" ^ axml_ns ^ "\" endpointURL=\"local:\" methodName=\""
let local_namespace_end = "\" namespaceURI=\"urn:axml:local\""

(* [<int:fun] and the call's four attributes, in [call_attrs]' order. *)
let add_call_open buf name =
  Buffer.add_string buf local_call_open;
  Pr.add_attr buf name;
  Buffer.add_string buf local_namespace_end

let add_tag buf opening name =
  Buffer.add_string buf opening;
  Buffer.add_string buf name;
  Buffer.add_char buf '>'

let rec compact buf (doc : D.t) =
  match doc with
  | D.Data value -> Pr.add_text buf value
  | D.Elem { label; children = []; _ } ->
    Buffer.add_char buf '<';
    Buffer.add_string buf label;
    Buffer.add_string buf "/>"
  | D.Elem { label; children; _ } ->
    add_tag buf "<" label;
    compact_forest buf children;
    add_tag buf "</" label
  | D.Call { name; params = []; _ } ->
    add_call_open buf name;
    Buffer.add_string buf "/>"
  | D.Call { name; params; _ } ->
    add_call_open buf name;
    Buffer.add_string buf "><int:params>";
    compact_params buf params;
    Buffer.add_string buf "</int:params></int:fun>"

and compact_forest buf = function
  | [] -> ()
  | d :: rest ->
    compact buf d;
    compact_forest buf rest

and compact_params buf = function
  | [] -> ()
  | p :: rest ->
    Buffer.add_string buf "<int:param>";
    compact buf p;
    Buffer.add_string buf "</int:param>";
    compact_params buf rest

let to_xml_string ?(pretty = true) doc =
  if pretty then Pr.to_pretty_string ~xml_decl:true (to_xml doc)
  else begin
    let buf = Spare_buffer.take Pr.spare in
    compact buf doc;
    Spare_buffer.contents Pr.spare buf
  end

(* ------------------------------------------------------------------ *)
(* XML -> Document                                                     *)
(* ------------------------------------------------------------------ *)

(* Two decoders build documents, and one set of rules says what the
   int:fun syntax allows where ([opening], [content], [params_closed],
   [call_closed]):
   - [of_xml] decodes a parsed [Xml_tree]: SOAP bodies and path
     queries; no document's bytes come to it. It recurses on the
     tree's depth and builds each children list front to back
     ([@tail_mod_cons]); building them on the explicit stack below
     measured 1.7-2.7x slower, since every node stored into the
     long-lived stack pays the write barrier.
   - The one pass reads the wire bytes token by token
     ([Xml_parser.next]) and builds the document on an explicit stack,
     with no tree. [of_xml_string_checked], the receiver's, checks
     Definition 3 as it goes; [of_xml_string], the batch loop's, the
     journal replay's and the CLI's, checks nothing but the syntax.

   A rule is keyed by the kind of the element a node sits in. A call is
   [k_call] until content other than layout comes before its
   int:params ([k_stray]), and [k_done] once they closed. *)

let k_elem = 0
let k_call = 1
let k_stray = 2
let k_done = 3
let k_params = 4
let k_param = 5
let k_skip = 6 (* an element a call's syntax ignores *)

let unexpected = "unexpected content inside int:fun"
let no_method_name = "int:fun element without a methodName attribute"

let too_many_bindings =
  Printf.sprintf "more than %d namespace prefixes bound at once" Ns.max_bindings

let unexpected_content () = raise (Syntax_error unexpected)
let not_a_param () = raise (Syntax_error "int:params may only contain int:param elements")

(* The kind of the element named [s.[off .. stop - 1]] (its prefix
   ending at [c]) that opens in an element of kind [k], [env] in force
   at it, its own declarations included. In a call before its
   int:params any other element is skipped ([k_skip]), which makes the
   call stray; after them every element is refused ([content]). *)
let opening k env s off stop c =
  if k = k_elem || k = k_param then
    if Ns.name_is_sub env ~uri:axml_ns ~local:"fun" s off stop c then k_call else k_elem
  else if k = k_call || k = k_stray then
    if Ns.name_is_sub env ~uri:axml_ns ~local:"params" s off stop c then k_params else k_skip
  else if k = k_params then
    if Ns.name_is_sub env ~uri:axml_ns ~local:"param" s off stop c then k_param
    else not_a_param ()
  else unexpected_content ()

(* Character data other than layout (or, after a call's int:params,
   any element) in an element of kind [k]: the element's kind after it.
   It is a data node where the kind stays. *)
let content k =
  if k = k_call || k = k_stray then k_stray
  else if k = k_done then unexpected_content ()
  else if k = k_params then not_a_param ()
  else k

(* A call of kind [k] closes its int:params, then itself. Stray content
   ranks after every offence inside the int:params. *)
let params_closed k = if k = k_stray then unexpected_content () else k_done
let call_closed k = if k = k_stray then unexpected_content ()

(* ------------------------------------------------------------------ *)
(* Decoding a tree                                                     *)
(* ------------------------------------------------------------------ *)

let is_layout = function
  | T.Text s -> T.is_whitespace s
  | T.Comment _ | T.Pi _ -> true
  | T.Element _ | T.Cdata _ -> false

(* The first methodName attribute, as [T.attr_value] finds it. *)
let rec method_name (attrs : T.attribute list) =
  match attrs with
  | [] -> raise (Syntax_error no_method_name)
  | a :: rest -> if String.equal a.name "methodName" then a.value else method_name rest

(* [opening] for a tree element. *)
let opening_element k env (e : T.element) =
  let name = e.T.name in
  let stop = String.length name in
  opening k env name 0 stop (Ns.prefix_end_sub name 0 stop)

(* The nodes after a call's int:params: layout only. *)
let rec after_params (nodes : T.t list) =
  match nodes with
  | [] -> ()
  | node :: rest ->
    if not (is_layout node) then ignore (content k_done);
    after_params rest

(* Decoding is direct recursion in depth and a loop in width: [forest
   env nodes penv more] decodes the sibling [nodes] under [env], then
   goes on with the rest [more] of an int:params list under [penv]
   ([more] is empty outside a call), so a call's parameter forest is
   built in one pass, without appending. Each element's namespace
   environment is extended once, with its own declarations, and
   everything below it is resolved under that. Nodes are decoded in
   document order, so outside a call the first offence in document
   order is the one reported ([call_params] ranks those inside one). *)
let[@tail_mod_cons] rec forest env (nodes : T.t list) penv (more : T.t list) : D.t list =
  match nodes with
  | [] -> (match more with [] -> [] | _ -> params penv more)
  | T.Element e :: rest ->
    let node = element (Ns.extend env e) e in
    node :: forest env rest penv more
  | T.Text s :: rest when not (T.is_whitespace s) -> D.data s :: forest env rest penv more
  | T.Cdata s :: rest -> D.data s :: forest env rest penv more
  | (T.Text _ | T.Comment _ | T.Pi _) :: rest -> forest env rest penv more

(* The content of the int:param elements among [nodes], in order. *)
and[@tail_mod_cons] params env (nodes : T.t list) : D.t list =
  match nodes with
  | [] -> []
  | T.Element pe :: rest ->
    let penv = Ns.extend env pe in
    ignore (opening_element k_params penv pe);
    forest penv pe.T.children env rest
  | node :: rest ->
    if not (is_layout node) then ignore (content k_params);
    params env rest

(* [env] is in force at [e]. Its prefix is found once, for both the
   namespace test and the local name. *)
and element env (e : T.element) : D.t =
  let name = e.T.name in
  let stop = String.length name in
  let c = Ns.prefix_end_sub name 0 stop in
  if opening k_elem env name 0 stop c = k_call then call_of_element env e
  else D.elem (Ns.local_name name c) (forest env e.T.children env [])

(* [env] is in force at the int:fun element [e]. Its int:params child
   is found and read in the one pass [call_params] makes over the
   children. *)
and call_of_element env (e : T.element) : D.t =
  let name = method_name e.T.attrs in
  D.call name (call_params env e.T.children k_call)

(* The decoded first int:params among [nodes], in a call of kind [k]. *)
and call_params env (nodes : T.t list) k =
  match nodes with
  | [] ->
    call_closed k;
    []
  | T.Element ce :: rest ->
    let cenv = Ns.extend env ce in
    if opening_element k cenv ce = k_params then begin
      let decoded = params cenv ce.T.children in
      ignore (params_closed k);
      after_params rest;
      decoded
    end
    else call_params env rest k_stray
  | node :: rest -> call_params env rest (if is_layout node then k else content k)

let of_xml_forest env (nodes : T.t list) : D.forest =
  match forest env nodes env [] with
  | decoded -> decoded
  | exception Ns.Too_many_bindings -> raise (Syntax_error too_many_bindings)

let of_xml (tree : T.t) : D.t =
  match of_xml_forest Ns.empty_env [ tree ] with
  | [ doc ] -> doc
  | [] -> raise (Syntax_error "the document is empty")
  | _ -> raise (Syntax_error "the document has several roots")

(* ------------------------------------------------------------------ *)
(* The one pass, checked or not                                       *)
(* ------------------------------------------------------------------ *)

(* The wire bytes are read token by token and the document is built on
   an explicit stack, so nothing recurses on the document's depth. A
   frame is an open element: its kind, where its children start on the
   node stack, its DFA state and symbol id, its name as a slice of the
   input (for its close tag) and its namespace environment. A finished
   node is pushed on the node stack; when its parent closes, its
   children are popped into their list front to back, so each list is
   built once and never reversed.

   Names are looked up, never interned: a declared name is the
   interner's string, and a name no schema declared is copied out of
   the input, its node getting id -1 as [Document.elem]/[call] give it.

   The pass gives each outcome of the tree route (parse, [of_xml],
   [Validate.document_violations]) itself, in the same words:
   - Bytes that do not parse: the reader's error at the first such
     token. The reader words the nesting's refusals too: no root, an
     unterminated element, a second root (read to its end first).
   - A syntax offence is raised at its token by the rules above, which
     rank the offences inside a call as [of_xml] does. An element a
     call skips is read for well-formedness only, since [of_xml]
     decodes nothing in it. As the tree route parses the whole input
     before it decodes, the input after a syntax offence is read for
     well-formedness only too, and bytes there that do not parse are
     reported instead.
   - Under a [Validate.ctx] (mode checking), Definition 3: each opening
     child steps its parent's DFA ([Dense.step_id]), and a closing
     element or call must leave it in a final state. At the first
     offence the pass turns to listing. It goes on building, and each
     element or call that closes from then on records its
     [Validate.node_violation], with its path read off the frame stack;
     the nodes closed before conform. At the end the root rule's
     violation comes first, then the records sorted by path, which is
     [Validate.fold]'s prefix order.
   Unchecked, no model is looked up.

   The stacks live in one scratch value kept in a spare slot between
   decodes (as [Spare_buffer] keeps a printer's buffer): a decode that
   finds the slot empty, because another one holds it, makes its own,
   and one whose stacks grew past their first size is dropped, a fresh
   scratch taking its place. So the slot holds one scratch of a fixed
   size after any decode, however deep, and what an accepted document
   costs is the document. *)

(* A frame's ints: its kind, the node-stack index its children start
   at, its DFA state, its symbol id, its name's offset and length in
   the input, and the frame whose [envs] slot holds its namespace
   environment (its own only when it declares a prefix). *)
let stride = 7

let mode_unchecked = 0
let mode_checking = 1
let mode_listing = 2

type scratch = {
  mutable ints : int array;
  mutable envs : Ns.env array;
  mutable nodes : D.t array;
  mutable sp : int;  (* frames 0 .. sp - 1 are open *)
  mutable top : int;  (* nodes 0 .. top - 1 are on the stack *)
  mutable high_sp : int;  (* the slots written since the scratch was given back *)
  mutable high_top : int;
  mutable mode : int;
  mutable names : string list;  (* of the open frames with id -1, innermost first *)
  mutable refused : Validate.violation list;  (* listed, latest first *)
}

let frames = 32
let node_slots = 128
let no_node = D.data ""

let make_scratch () =
  { ints = Array.make (frames * stride) 0; envs = Array.make frames Ns.empty_env;
    nodes = Array.make node_slots no_node; sp = 0; top = 0; high_sp = 0; high_top = 0;
    mode = mode_unchecked; names = []; refused = [] }

let spare : scratch Atomic.t = Atomic.make (make_scratch ())

(* What the slot holds while a decode has its scratch. *)
let taken =
  { ints = [||]; envs = [||]; nodes = [||]; sp = 0; top = 0; high_sp = 0; high_top = 0;
    mode = mode_unchecked; names = []; refused = [] }

let take () =
  let d = Atomic.exchange spare taken in
  if d == taken then make_scratch () else d

(* A decode leaves what it popped in its slots; they are cleared once,
   here, so the scratch keeps no document alive. *)
let give d =
  if Array.length d.envs = frames && Array.length d.nodes = node_slots then begin
    for i = 0 to d.high_sp - 1 do
      if Array.unsafe_get d.envs i != Ns.empty_env then Array.unsafe_set d.envs i Ns.empty_env
    done;
    for i = 0 to d.high_top - 1 do Array.unsafe_set d.nodes i no_node done;
    d.sp <- 0;
    d.top <- 0;
    d.high_sp <- 0;
    d.high_top <- 0;
    d.mode <- mode_unchecked;
    if d.names != [] then d.names <- [];
    if d.refused != [] then d.refused <- [];
    Atomic.set spare d
  end
  else Atomic.set spare (make_scratch ())

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] kind d i = Array.unsafe_get d.ints (i * stride)
let[@inline] set_kind d i k = Array.unsafe_set d.ints (i * stride) k
let[@inline] base d i = Array.unsafe_get d.ints ((i * stride) + 1)
let[@inline] state d i = Array.unsafe_get d.ints ((i * stride) + 2)
let[@inline] set_state d i s = Array.unsafe_set d.ints ((i * stride) + 2) s
let[@inline] id d i = Array.unsafe_get d.ints ((i * stride) + 3)
let[@inline] env_slot d i = Array.unsafe_get d.ints ((i * stride) + 6)
let[@inline] current_env d = Array.unsafe_get d.envs (env_slot d (d.sp - 1))

let push d kind env ~id ~state ~off ~len =
  let i = d.sp in
  if i = Array.length d.envs then begin
    d.ints <- grow d.ints 0;
    d.envs <- grow d.envs Ns.empty_env
  end;
  let o = i * stride in
  Array.unsafe_set d.ints o kind;
  Array.unsafe_set d.ints (o + 1) d.top;
  Array.unsafe_set d.ints (o + 2) state;
  Array.unsafe_set d.ints (o + 3) id;
  Array.unsafe_set d.ints (o + 4) off;
  Array.unsafe_set d.ints (o + 5) len;
  if i > 0 && env == current_env d then Array.unsafe_set d.ints (o + 6) (env_slot d (i - 1))
  else begin
    Array.unsafe_set d.envs i env;
    Array.unsafe_set d.ints (o + 6) i
  end;
  d.sp <- i + 1;
  if d.sp > d.high_sp then d.high_sp <- d.sp

let add d node =
  if d.top = Array.length d.nodes then d.nodes <- grow d.nodes no_node;
  Array.unsafe_set d.nodes d.top node;
  d.top <- d.top + 1;
  if d.top > d.high_top then d.high_top <- d.top

(* The nodes from [b] up, popped into their list. *)
let children d b =
  let l = ref [] in
  for i = d.top - 1 downto b do
    l := Array.unsafe_get d.nodes i :: !l
  done;
  d.top <- b;
  !l

(* The innermost open element's close tag: read, or missing. *)
let close_tag d r =
  let o = (d.sp - 1) * stride in
  P.close r (P.input r) (Array.unsafe_get d.ints (o + 4)) (Array.unsafe_get d.ints (o + 5))

let unterminated d r =
  let o = (d.sp - 1) * stride in
  P.unterminated r (P.input r) (Array.unsafe_get d.ints (o + 4)) (Array.unsafe_get d.ints (o + 5))

(* ---- Well-formedness only ---- *)

(* The rest of the start tag [s.[off .. stop - 1]] that [P.next] has
   just read: its attributes, declaring none, and a [k_skip] frame
   unless the tag is empty. *)
let skip_tag d r off stop =
  while P.attribute r do () done;
  if not (P.tag_end r (P.input r) off (stop - off)) then
    push d k_skip (current_env d) ~id:(-1) ~state:0 ~off ~len:(stop - off)

(* The tokens up to the close of frame [level]. *)
let rec skip d r level =
  if d.sp > level then begin
    (match P.next r with
     | P.Start -> skip_tag d r (P.name_start r) (P.name_end r)
     | P.End ->
       close_tag d r;
       d.sp <- d.sp - 1
     | P.Eof -> unterminated d r
     | P.Text | P.Cdata | P.Comment | P.Pi -> ());
    skip d r level
  end

(* After the root: the end of the input, or a second root, refused once
   it is read. *)
let after_root d r =
  match P.next_top r with
  | P.Eof -> ()
  | _ ->
    skip_tag d r (P.name_start r) (P.name_end r);
    skip d r 1;
    P.multiple_roots r

(* A start tag refused before its end: it is read on as [skip_tag]
   reads it, so the reading after the refusal finds its close tag. *)
let refuse_tag d r off stop message =
  skip_tag d r off stop;
  raise (Syntax_error message)

(* ---- Definition 3 ---- *)

(* A child with symbol id [child] joins the word of the innermost
   element or call (an int:param's content is its call's parameters);
   the forest frame has no word. While checking, a word that leaves its
   model turns the pass to listing. *)
let step ctx d child =
  if d.mode = mode_checking then begin
    let i = d.sp - 1 in
    let o = if kind d i = k_param then i - 2 else i in
    if o > 0 then
      match Validate.model_of_id ctx (id d o) with
      | Some m ->
        let s = Dense.step_id m.Validate.dfa (state d o) child in
        if s < 0 then d.mode <- mode_listing else set_state d o s
      | None -> d.mode <- mode_listing
  end

(* [acc] prefixed with the path of the node that node frame [i] builds:
   its index among the children (or the call's parameters) it sits in,
   then its parent's, up to the root. *)
let rec path d i acc =
  if i <= 1 then acc
  else
    let o = if kind d (i - 1) = k_param then i - 3 else i - 1 in
    path d o ((base d i - base d o) :: acc)

(* The node of frame [i], closing: while checking, its word must end in
   a final state, and the first that does not turns the pass to
   listing; while listing, its violation is recorded. *)
let judge ctx d i node =
  let listed =
    d.mode = mode_listing
    ||
    match Validate.model_of_id ctx (id d i) with
    | Some m when Dense.is_final m.Validate.dfa (state d i) -> false
    | _ ->
      d.mode <- mode_listing;
      true
  in
  if listed then
    match Validate.node_violation node (Validate.model_of_id ctx (D.sym_id node)) with
    | None -> ()
    | Some kind -> d.refused <- { Validate.at = path d i []; kind } :: d.refused

(* ---- The token loop ---- *)

(* Character data other than layout: a data node, or what makes a call
   before its int:params stray. *)
let data ctx d (r : P.reader) =
  let i = d.sp - 1 in
  if content (kind d i) = k_stray then set_kind d i k_stray
  else begin
    step ctx d Sym_id.data;
    add d (D.data (P.text r))
  end

(* The innermost frame closes; it is popped before a rule can refuse. *)
let close_frame ctx d =
  let i = d.sp - 1 in
  d.sp <- i;
  let k = kind d i in
  if k <= k_done then begin
    if k <> k_elem then call_closed k;
    let id = id d i in
    let kids = children d (base d i) in
    let node =
      if id >= 0 then if k = k_elem then D.elem_of_id id kids else D.call_of_id id kids
      else
        match d.names with
        | name :: rest ->
          d.names <- rest;
          if k = k_elem then D.elem name kids else D.call name kids
        | [] -> assert false (* every frame with id -1 put its name there *)
    in
    if d.mode <> mode_unchecked then judge ctx d i node;
    add d node
  end
  else if k = k_params then set_kind d (i - 1) (params_closed (kind d (i - 1)))

(* Is [s.[off .. stop - 1]] "methodName"? *)
let is_method_name s off stop =
  let m = "methodName" in
  stop - off = 10
  &&
  let i = ref 0 in
  while !i < 10 && String.unsafe_get s (off + !i) = String.unsafe_get m !i do incr i done;
  !i = 10

(* The start tag [P.next] has just read opens a frame, closed at once
   when the tag is empty. Names are resolved in place: an element's
   local name and a plain methodName value are looked up as slices of
   the input, so a declared name is never copied. The element's
   declarations are put in force before its kind is ruled on, as
   [of_xml] extends an element before it decodes it; after a call's
   int:params an element is refused before that, as [of_xml] refuses
   it unextended. *)
let start_element ctx d r =
  let s = P.input r in
  let off = P.name_start r and stop = P.name_end r in
  let parent = kind d (d.sp - 1) in
  if parent = k_done then refuse_tag d r off stop unexpected;
  let c = Ns.prefix_end_sub s off stop in
  (* the first methodName: [moff] is -1 before it, -2 once decoded into [mname] *)
  let env = ref (current_env d) and moff = ref (-1) and mstop = ref 0 and mname = ref "" in
  let k =
    match
      while P.attribute r do
        env := Ns.declare_attribute ~known:int_declaration !env r;
        if !moff = -1 && is_method_name s (P.name_start r) (P.name_end r) then
          if P.value_decoded r then begin
            mname := P.value r;
            moff := -2
          end
          else begin
            moff := P.value_start r;
            mstop := P.value_end r
          end
      done;
      opening parent !env s off stop c
    with
    | k -> k
    | exception Syntax_error m -> refuse_tag d r off stop m
    | exception Ns.Too_many_bindings -> refuse_tag d r off stop too_many_bindings
  in
  if k = k_call && !moff = -1 then refuse_tag d r off stop no_method_name;
  let env = !env in
  let empty = P.tag_end r s off (stop - off) in
  if k = k_skip then begin
    set_kind d (d.sp - 1) k_stray;
    if not empty then begin
      push d k_skip env ~id:(-1) ~state:0 ~off ~len:(stop - off);
      skip d r (d.sp - 1)
    end
  end
  else begin
    let l = if c < 0 then off else c + 1 in
    let id =
      if k = k_elem then Sym_id.find_label_sub s l (stop - l)
      else if k = k_call then
        if !moff = -2 then Sym_id.find_fun !mname
        else Sym_id.find_fun_sub s !moff (!mstop - !moff)
      else 0
    in
    if id < 0 then
      d.names <-
        (if k = k_elem then String.sub s l (stop - l)
         else if !moff = -2 then !mname
         else String.sub s !moff (!mstop - !moff))
        :: d.names;
    let state =
      if d.mode = mode_checking && k <= k_call then
        match Validate.model_of_id ctx id with
        | Some m ->
          step ctx d id;
          Dense.start m.Validate.dfa
        | None ->
          d.mode <- mode_listing;
          0
      else 0
    in
    push d k env ~id ~state ~off ~len:(stop - off);
    if empty then close_frame ctx d
  end

(* The tokens up to the root's close tag. *)
let rec pull ctx d r =
  if d.sp > 1 then begin
    (match P.next r with
     | P.Start -> start_element ctx d r
     | P.End ->
       close_tag d r;
       close_frame ctx d
     | P.Text -> if not (P.text_is_whitespace r) then data ctx d r
     | P.Cdata -> data ctx d r
     | P.Comment | P.Pi -> ()
     | P.Eof -> unterminated d r);
    pull ctx d r
  end

(* The scratch, taken, with frame 0 open: the forest read, which has no
   word. *)
let open_pass mode =
  let d = take () in
  d.mode <- mode;
  push d k_elem Ns.empty_env ~id:(-1) ~state:0 ~off:0 ~len:0;
  d

let decode ctx d r =
  (match P.next_top r with P.Start -> start_element ctx d r | _ -> P.no_root r);
  pull ctx d r;
  after_root d r;
  Array.unsafe_get d.nodes 0

(* The text of the refusal [e] raised mid-pass, the scratch given back:
   the syntax offence, unless the input after it does not parse. *)
let refusal_text d r e =
  let text =
    match e with
    | Syntax_error m ->
      (match
         skip d r 1;
         after_root d r
       with
       | () -> m
       | exception P.Error { pos; message } -> P.error_text pos message)
    | P.Error { pos; message } -> P.error_text pos message
    | e ->
      give d;
      raise e
  in
  give d;
  text

(* The context of the unchecked pass, in which no model is looked up. *)
let unchecked = Validate.ctx Axml_schema.Schema.empty

let of_xml_string input =
  let d = open_pass mode_unchecked and r = P.reader input in
  match decode unchecked d r with
  | doc ->
    give d;
    doc
  | exception e -> raise (Syntax_error (refusal_text d r e))

type refusal = Malformed of string | Violations of Validate.violation list

let of_xml_string_checked ctx input =
  let d = open_pass mode_checking and r = P.reader input in
  match decode ctx d r with
  | doc ->
    let listed = d.refused in
    give d;
    (match Validate.root_violation ctx doc, listed with
     | None, [] -> Ok doc
     | root, listed ->
       (* a path is an int list: [compare] orders them lexicographically,
          a prefix first, which is the prefix order of [Validate.fold] *)
       let by_path (a : Validate.violation) (b : Validate.violation) = compare a.at b.at in
       Error (Violations (Option.to_list root @ List.stable_sort by_path listed)))
  | exception e -> Error (Malformed (refusal_text d r e))
