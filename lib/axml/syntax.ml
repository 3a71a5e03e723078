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

let rec node_to_xml ~locate (doc : D.t) : T.t =
  match doc with
  | D.Data value -> T.text value
  | D.Elem { label; children } ->
    T.element label (List.map (node_to_xml ~locate) children)
  | D.Call { name; params } ->
    let endpoint, namespace =
      match locate name with
      | Some (e, n) -> (e, n)
      | None -> ("local:", "urn:axml:local")
    in
    let params =
      List.map
        (fun p -> T.element "int:param" [ node_to_xml ~locate p ])
        params
    in
    (* every call node carries its own namespace declaration, so any
       subtree extracted by a query stays a well-formed intensional
       fragment *)
    T.element
      ~attrs:
        [ T.attr "xmlns:int" axml_ns;
          T.attr "endpointURL" endpoint;
          T.attr "methodName" name;
          T.attr "namespaceURI" namespace ]
      "int:fun"
      (if params = [] then [] else [ T.element "int:params" params ])

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

(* Each element's namespace environment is extended once, with its own
   declarations, and everything below it is resolved under that. *)
let rec xml_to_node env (node : T.t) : D.t list =
  match node with
  | T.Text s -> if T.is_whitespace s then [] else [ D.data s ]
  | T.Cdata s -> [ D.data s ]
  | T.Comment _ | T.Pi _ -> []
  | T.Element e ->
    let env = Ns.extend env e in
    (match Ns.expanded_name env e with
     | Some uri, "fun" when String.equal uri axml_ns -> [ call_of_element env e ]
     | _, local -> [ D.elem local (List.concat_map (xml_to_node env) e.T.children) ])

(* [env] is in force at the int:fun element [e]. Only its first
   int:params child is read; any other content but layout is an error,
   reported after the params are decoded. *)
and call_of_element env (e : T.element) : D.t =
  let name =
    match T.attr_value e "methodName" with
    | Some n -> n
    | None -> raise (Syntax_error "int:fun element without a methodName attribute")
  in
  let params = ref None and unexpected = ref false in
  List.iter
    (fun child ->
      match child with
      | T.Element ce ->
        let env = Ns.extend env ce in
        if is_int env ce "params" then
          (if Option.is_none !params then params := Some (env, ce))
        else unexpected := true
      | node -> if not (is_layout node) then unexpected := true)
    e.T.children;
  let params =
    match !params with
    | None -> []
    | Some (env, pe) -> List.concat_map (param_content env) pe.T.children
  in
  if !unexpected then raise (Syntax_error "unexpected content inside int:fun");
  D.call name params

and param_content env (node : T.t) =
  match node with
  | T.Element pe ->
    let env = Ns.extend env pe in
    if is_int env pe "param" then List.concat_map (xml_to_node env) pe.T.children
    else raise (Syntax_error "int:params may only contain int:param elements")
  | node when is_layout node -> []
  | _ -> raise (Syntax_error "int:params may only contain int:param elements")

(* Is [e], under the environment [env] in force at it, the int element
   [local]? *)
and is_int env (e : T.element) local =
  match Ns.expanded_name env e with
  | Some uri, l -> String.equal l local && String.equal uri axml_ns
  | None, _ -> false

let of_xml (tree : T.t) : D.t =
  match xml_to_node Ns.empty_env tree with
  | [ doc ] -> doc
  | [] -> raise (Syntax_error "the document is empty")
  | _ -> raise (Syntax_error "the document has several roots")

let of_xml_string input =
  match Axml_xml.Xml_parser.parse_result input with
  | Ok tree -> of_xml tree
  | Error e -> raise (Syntax_error e)
