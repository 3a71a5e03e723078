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

let axml_ns = "http://www.activexml.com/ns/int"

exception Syntax_error of string

(* How to find the locator attributes of a function (its endpoint and
   SOAP namespace); by default everything is local. *)
type locator = string -> (string * string) option

let default_locator : locator = fun _ -> None

(* ------------------------------------------------------------------ *)
(* Document -> XML                                                     *)
(* ------------------------------------------------------------------ *)

(* The attributes of a call: the constant ones are built once, so a
   call under the default locator allocates its methodName and three
   list cells. Every call node carries its own namespace declaration,
   so any subtree extracted by a query stays a well-formed intensional
   fragment. *)
let int_declaration = T.attr "xmlns:int" axml_ns
let local_endpoint = T.attr "endpointURL" "local:"
let local_namespace = [ T.attr "namespaceURI" "urn:axml:local" ]

let call_attrs (locate : locator) name =
  let method_name = T.attr "methodName" name in
  match locate name with
  | None -> int_declaration :: local_endpoint :: method_name :: local_namespace
  | Some (e, n) ->
    [ int_declaration; T.attr "endpointURL" e; method_name; T.attr "namespaceURI" n ]

let rec node_to_xml ~locate (doc : D.t) : T.t =
  match doc with
  | D.Data value -> T.Text value
  | D.Elem { label; children; _ } ->
    T.Element { name = label; attrs = []; children = forest_to_xml locate children }
  | D.Call { name; params; _ } ->
    let attrs = call_attrs locate name in
    let children =
      match params with
      | [] -> []
      | _ -> [ T.Element { name = "int:params"; attrs = []; children = params_to_xml locate params } ]
    in
    T.Element { name = "int:fun"; attrs; children }

and[@tail_mod_cons] forest_to_xml locate (docs : D.t list) : T.t list =
  match docs with
  | [] -> []
  | d :: rest -> node_to_xml ~locate d :: forest_to_xml locate rest

and[@tail_mod_cons] params_to_xml locate (params : D.t list) : T.t list =
  match params with
  | [] -> []
  | p :: rest ->
    T.Element { name = "int:param"; attrs = []; children = [ node_to_xml ~locate p ] }
    :: params_to_xml locate rest

let to_xml ?(locate = default_locator) (doc : D.t) : T.t = node_to_xml ~locate doc

let to_xml_string ?locate ?(pretty = true) doc =
  let xml = to_xml ?locate doc in
  if pretty then Axml_xml.Xml_print.to_pretty_string ~xml_decl:true xml
  else Axml_xml.Xml_print.to_string xml

(* ------------------------------------------------------------------ *)
(* XML -> Document                                                     *)
(* ------------------------------------------------------------------ *)

let is_layout = function
  | T.Text s -> T.is_whitespace s
  | T.Comment _ | T.Pi _ -> true
  | T.Element _ | T.Cdata _ -> false

let is_int env e local = Ns.element_is env ~uri:axml_ns ~local e

(* The first methodName attribute, as [T.attr_value] finds it. *)
let rec method_name (attrs : T.attribute list) =
  match attrs with
  | [] -> raise (Syntax_error "int:fun element without a methodName attribute")
  | a :: rest -> if String.equal a.name "methodName" then a.value else method_name rest

(* Is there content other than layout among [nodes], the children of an
   int:fun after its int:params? A second int:params counts: a call has
   one parameter list (Section 7). *)
let rec unexpected (nodes : T.t list) =
  match nodes with
  | [] -> false
  | node :: rest -> (not (is_layout node)) || unexpected rest

let unexpected_content () = raise (Syntax_error "unexpected content inside int:fun")

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

(* The content of the int:param elements among [nodes], in order;
   anything else but layout is an error. *)
and[@tail_mod_cons] params env (nodes : T.t list) : D.t list =
  match nodes with
  | [] -> []
  | T.Element pe :: rest ->
    let penv = Ns.extend env pe in
    if is_int penv pe "param" then forest penv pe.T.children env rest
    else raise (Syntax_error "int:params may only contain int:param elements")
  | node :: rest ->
    if is_layout node then params env rest
    else raise (Syntax_error "int:params may only contain int:param elements")

(* [env] is in force at [e]. Its prefix is found once, for both the
   namespace test and the local name. *)
and element env (e : T.element) : D.t =
  let name = e.T.name in
  let c = Ns.prefix_end name in
  if Ns.name_is env ~uri:axml_ns ~local:"fun" name c then call_of_element env e
  else D.elem (Ns.local_name name c) (forest env e.T.children env [])

(* [env] is in force at the int:fun element [e]. Its int:params child
   is found and read in the one pass [call_params] makes over the
   children. *)
and call_of_element env (e : T.element) : D.t =
  let name = method_name e.T.attrs in
  D.call name (call_params env e.T.children false)

(* The decoded first int:params among [nodes]; [stray] is whether
   content other than layout came before them. The offences rank: an
   error inside that int:params, then stray content before or after
   it, a second int:params included. *)
and call_params env (nodes : T.t list) stray =
  match nodes with
  | [] -> if stray then unexpected_content () else []
  | T.Element ce :: rest ->
    let cenv = Ns.extend env ce in
    if is_int cenv ce "params" then begin
      let decoded = params cenv ce.T.children in
      if stray || unexpected rest then unexpected_content ();
      decoded
    end
    else call_params env rest true
  | node :: rest -> call_params env rest (stray || not (is_layout node))

let of_xml_forest env (nodes : T.t list) : D.forest =
  match forest env nodes env [] with
  | decoded -> decoded
  | exception Ns.Too_many_bindings ->
    raise
      (Syntax_error
         (Printf.sprintf "more than %d namespace prefixes bound at once" Ns.max_bindings))

let of_xml (tree : T.t) : D.t =
  match of_xml_forest Ns.empty_env [ tree ] with
  | [ doc ] -> doc
  | [] -> raise (Syntax_error "the document is empty")
  | _ -> raise (Syntax_error "the document has several roots")

let of_xml_string input =
  match Axml_xml.Xml_parser.parse_result input with
  | Ok tree -> of_xml tree
  | Error e -> raise (Syntax_error e)
