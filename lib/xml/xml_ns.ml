(* XML namespace resolution (the mechanism the paper uses to mark
   intensional call nodes: elements in the
   http://www.activexml.com/ns/int namespace, Section 7).

   An environment maps prefixes to URIs; [""] is the default namespace. *)

module String_map = Map.Make (String)

type env = string String_map.t

let empty_env : env = String_map.empty

(* Split "prefix:local" into (Some prefix, local) or (None, name). *)
let split_name name =
  match String.index_opt name ':' with
  | None -> (None, name)
  | Some i ->
    (Some (String.sub name 0 i), String.sub name (i + 1) (String.length name - i - 1))

let add_declaration env (a : Xml_tree.attribute) =
  if String.equal a.name "xmlns" then String_map.add "" a.value env
  else if String.starts_with ~prefix:"xmlns:" a.name then
    String_map.add (String.sub a.name 6 (String.length a.name - 6)) a.value env
  else env

(* Extend [env] with the xmlns declarations of [element] (an element
   without attributes gets [env] itself). *)
let extend env (element : Xml_tree.element) =
  List.fold_left add_declaration env element.attrs

(* Namespace URI and local name of an element under [env], the
   environment in force at the element (its own declarations included,
   as [extend] and [iter_elements] give it). Elements without a prefix
   take the default namespace (if any). *)
let expanded_name env (element : Xml_tree.element) =
  match split_name element.name with
  | None, local -> (String_map.find_opt "" env, local)
  | Some prefix, local -> (String_map.find_opt prefix env, local)

(* Attributes without a prefix have no namespace (per the XML spec). *)
let expanded_attr_name env (attr : Xml_tree.attribute) =
  match split_name attr.name with
  | None, local -> (None, local)
  | Some prefix, local -> (String_map.find_opt prefix env, local)

(* Walk the tree, calling [f env element] on every element with the
   namespace environment in force at that element. *)
let iter_elements f tree =
  let rec go env (node : Xml_tree.t) =
    match node with
    | Element e ->
      let env = extend env e in
      f env e;
      List.iter (go env) e.children
    | Text _ | Cdata _ | Comment _ | Pi _ -> ()
  in
  go empty_env tree

(* Does [element] (under [env]) live in namespace [uri] with local name
   [local]? *)
let element_is env ~uri ~local element =
  match expanded_name env element with
  | Some u, l -> String.equal u uri && String.equal l local
  | None, _ -> false
