(* WSDL_int descriptors (Section 7): self-contained XML descriptions of a
   service's intensional signature. A descriptor is an XML Schema_int
   document holding the <function> declaration plus the (transitively)
   referenced element types, so the receiving peer can type-check calls
   without any other context. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module T = Axml_xml.Xml_tree
module Service = Axml_services.Service

exception Wsdl_error of string

(* Element labels and function names referenced transitively by
   [contents] in [types]: the closure is joint, since an element type
   may embed a function call whose own signature references further
   element types (intensional types, Section 7). *)
let referenced_names (types : Schema.t) contents =
  let labels = ref Schema.String_set.empty in
  let funs = ref Schema.String_set.empty in
  let rec visit_content c =
    List.iter
      (fun atom ->
        match atom with
        | Schema.A_label l -> visit_label l
        | Schema.A_fun f -> visit_fun f
        | Schema.A_pattern _ | Schema.A_data
        | Schema.A_any_element | Schema.A_any_fun -> ())
      (Schema.atoms_of_content c)
  and visit_label l =
    if not (Schema.String_set.mem l !labels) then begin
      labels := Schema.String_set.add l !labels;
      match Schema.find_element types l with
      | Some c -> visit_content c
      | None -> ()
    end
  and visit_fun f =
    if not (Schema.String_set.mem f !funs) then begin
      funs := Schema.String_set.add f !funs;
      match Schema.find_function types f with
      | Some fn -> visit_content fn.Schema.f_input; visit_content fn.Schema.f_output
      | None -> ()
    end
  in
  List.iter visit_content contents;
  (Schema.String_set.elements !labels, Schema.String_set.elements !funs)

(* The WSDL_int document of [service], with element types drawn from
   [types]. Function declarations referenced by those types ride along,
   so a descriptor with intensional element types stays self-contained
   (it must pass [Schema.check] on the receiving peer). *)
let describe ~(types : Schema.t) (service : Service.t) : T.t =
  let decl = Service.declaration service in
  let labels, funs =
    referenced_names types [ decl.Schema.f_input; decl.Schema.f_output ]
  in
  let schema =
    List.fold_left
      (fun s l ->
        match Schema.find_element types l with
        | Some c -> Schema.add_element s l c
        | None -> raise (Wsdl_error (Fmt.str "type %S is not declared" l)))
      Schema.empty labels
  in
  let schema =
    List.fold_left
      (fun s f ->
        if f = decl.Schema.f_name then s
        else
          match Schema.find_function types f with
          | Some fn -> Schema.add_function s fn
          | None ->
            raise (Wsdl_error (Fmt.str "function type %S is not declared" f)))
      schema funs
  in
  let schema = Schema.add_function schema decl in
  Xml_schema_int.to_xml schema

let describe_string ?(pretty = true) ~types service =
  let xml = describe ~types service in
  if pretty then Axml_xml.Xml_print.to_pretty_string ~xml_decl:true xml
  else Axml_xml.Xml_print.to_string xml

(* Parse a WSDL_int descriptor back into the function declaration plus
   the types it carries. [service] picks the described function when the
   descriptor also carries auxiliary declarations referenced by its
   intensional element types. *)
let parse ?service (tree : T.t) : Schema.func * Schema.t =
  let schema =
    try Xml_schema_int.of_xml tree
    with Xml_schema_int.Schema_syntax_error m -> raise (Wsdl_error m)
  in
  let name =
    match (service, Schema.function_names schema) with
    | _, [] -> raise (Wsdl_error "descriptor declares no function")
    | Some s, names ->
      if List.mem s names then s
      else raise (Wsdl_error (Fmt.str "descriptor does not declare %S" s))
    | None, [ name ] -> name
    | None, _ ->
      raise
        (Wsdl_error
           "descriptor declares several functions (name the service to \
            disambiguate)")
  in
  match Schema.find_function schema name with
  | Some f -> (f, schema)
  | None -> assert false

let parse_string ?service input =
  match Axml_xml.Xml_parser.parse_result input with
  | Ok tree -> parse ?service tree
  | Error e -> raise (Wsdl_error ("malformed XML: " ^ e))

(* Import a parsed descriptor into a schema: add the function, any
   missing element types and any auxiliary function declarations the
   descriptor carries (existing element declarations win; a function
   redeclared with another signature is a conflict). *)
let import (schema : Schema.t) (f, types) =
  let schema =
    List.fold_left
      (fun s l ->
        match Schema.find_element s l, Schema.find_element types l with
        | Some _, _ -> s
        | None, Some c -> Schema.add_element s l c
        | None, None -> s)
      schema (Schema.element_names types)
  in
  let add_function s (g : Schema.func) =
    match Schema.find_function s g.Schema.f_name with
    | Some existing ->
      if R.equal (fun a b -> a = b) existing.Schema.f_input g.Schema.f_input
         && R.equal (fun a b -> a = b) existing.Schema.f_output g.Schema.f_output
      then s
      else
        raise
          (Wsdl_error
             (Fmt.str "function %S is already declared with another signature"
                g.Schema.f_name))
    | None -> Schema.add_function s g
  in
  let schema =
    List.fold_left
      (fun s name ->
        match Schema.find_function types name with
        | Some g when name <> f.Schema.f_name -> add_function s g
        | _ -> s)
      schema (Schema.function_names types)
  in
  add_function schema f
