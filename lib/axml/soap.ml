(* SOAP-style envelopes for peer-to-peer exchanges: every call between
   peers serializes its (possibly intensional) parameters and results
   through this wire format, exercising the same marshalling path a real
   ActiveXML deployment would. *)

module D = Axml_core.Document
module T = Axml_xml.Xml_tree

let soap_ns = "http://schemas.xmlsoap.org/soap/envelope/"

(* Version 1 is the historical unversioned envelope; version 2 stamps
   [int:protocol] on the envelope root so peers across a real wire can
   detect (and cleanly reject) an envelope dialect they do not speak. *)
let protocol_version = 2

exception Protocol_error of string
exception Unsupported_version of { got : int; supported : int }

type message =
  | Request of { method_name : string; params : D.forest }
  | Response of { method_name : string; result : D.forest }
  | Fault of { code : string; reason : string }

let envelope ~version body =
  T.element
    ~attrs:[ T.attr "xmlns:soap" soap_ns; T.attr "xmlns:int" Syntax.axml_ns;
             T.attr "int:protocol" (string_of_int version) ]
    "soap:Envelope"
    [ T.element "soap:Body" [ body ] ]

let wrap_forest tag (forest : D.forest) =
  T.element tag
    (List.map Syntax.to_xml forest)

let encode ?(version = protocol_version) message : string =
  let body =
    match message with
    | Request { method_name; params } ->
      T.element ~attrs:[ T.attr "method" method_name ] "int:request"
        [ wrap_forest "int:args" params ]
    | Response { method_name; result } ->
      T.element ~attrs:[ T.attr "method" method_name ] "int:response"
        [ wrap_forest "int:result" result ]
    | Fault { code; reason } ->
      T.element "soap:Fault"
        [ T.element "faultcode" [ T.text code ];
          T.element "faultstring" [ T.text reason ] ]
  in
  Axml_xml.Xml_print.to_string (envelope ~version body)

(* The declared version of an envelope element: the [int:protocol]
   attribute, or 1 for the historical unversioned envelope. *)
let version_of_root root =
  match T.attr_value root "int:protocol" with
  | None -> Some 1
  | Some v ->
    (match int_of_string_opt (String.trim v) with
     | Some v when v >= 1 -> Some v
     | _ -> None)

let wire_version (wire : string) : int option =
  match Axml_xml.Xml_parser.parse_result wire with
  | Error _ -> None
  | Ok (T.Element root) -> version_of_root root
  | Ok _ -> None

(* The decoded children of [e]: malformed intensional markup in a
   payload is the envelope's fault. *)
let payload env (e : T.element) =
  match Syntax.of_xml_forest env e.T.children with
  | forest -> forest
  | exception Syntax.Syntax_error m -> raise (Protocol_error m)

let decode (wire : string) : message =
  let tree =
    match Axml_xml.Xml_parser.parse_result wire with
    | Ok t -> t
    | Error e -> raise (Protocol_error ("malformed envelope: " ^ e))
  in
  let root = match tree with
    | T.Element e -> e
    | _ -> raise (Protocol_error "envelope is not an element")
  in
  (match version_of_root root with
   | None -> raise (Protocol_error "malformed int:protocol version")
   | Some got when got > protocol_version ->
     raise (Unsupported_version { got; supported = protocol_version })
   | Some _ -> ());
  let env =
    match Axml_xml.Xml_ns.extend Axml_xml.Xml_ns.empty_env root with
    | env -> env
    | exception Axml_xml.Xml_ns.Too_many_bindings ->
      raise (Protocol_error "too many namespace declarations on the envelope")
  in
  let body =
    match T.child_element root "soap:Body" with
    | Some b -> b
    | None -> raise (Protocol_error "no soap:Body")
  in
  match T.child_elements body with
  | [ { T.name = "int:request"; _ } as e ] ->
    let method_name =
      match T.attr_value e "method" with
      | Some m -> m
      | None -> raise (Protocol_error "request without a method")
    in
    let params =
      match T.child_element e "int:args" with
      | Some args -> payload env args
      | None -> []
    in
    Request { method_name; params }
  | [ { T.name = "int:response"; _ } as e ] ->
    let method_name =
      match T.attr_value e "method" with
      | Some m -> m
      | None -> raise (Protocol_error "response without a method")
    in
    let result =
      match T.child_element e "int:result" with
      | Some r -> payload env r
      | None -> []
    in
    Response { method_name; result }
  | [ { T.name = "soap:Fault"; _ } as e ] ->
    let text name =
      match T.child_element e name with
      | Some el -> T.text_content el
      | None -> ""
    in
    Fault { code = text "faultcode"; reason = text "faultstring" }
  | _ -> raise (Protocol_error "unrecognized body")
