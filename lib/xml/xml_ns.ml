(* XML namespace resolution (the mechanism the paper uses to mark
   intensional call nodes: elements in the
   http://www.activexml.com/ns/int namespace, Section 7).

   An environment is the list of xmlns declarations in force, innermost
   first, one per bound prefix. Names are never split: a prefix is
   compared in place against the declarations, so resolving a name, or
   extending the environment at an element without declarations,
   allocates nothing. A lookup scans the list, so the number of
   prefixes bound at once is bounded ([max_bindings]): without a bound,
   nested distinct declarations would make decoding quadratic. *)

type env = Xml_tree.attribute list

let empty_env : env = []

exception Too_many_bindings

let max_bindings = 64

(* The helpers below are closed top-level functions: a local recursive
   function capturing its arguments would allocate a closure per call. *)

(* Index of the first ':' of [name] from [i] on, -1. *)
let rec colon_from name i =
  if i >= String.length name then -1 else if name.[i] = ':' then i else colon_from name (i + 1)

let colon name = colon_from name 0

(* Do [a.[i ..]] and [b.[j ..]] agree on [len] bytes? Both are long
   enough. *)
let rec same_bytes a i b j len =
  len <= 0 || (a.[i] = b.[j] && same_bytes a (i + 1) b (j + 1) (len - 1))

let is_xmlns_colon n =
  String.length n >= 6
  && n.[0] = 'x' && n.[1] = 'm' && n.[2] = 'l' && n.[3] = 'n' && n.[4] = 's' && n.[5] = ':'

(* [xmlns] declares the default namespace, [xmlns:p] the prefix p (an
   empty p the default namespace too). *)
let is_declaration (a : Xml_tree.attribute) = String.equal a.name "xmlns" || is_xmlns_colon a.name

(* Length of the prefix a declaration binds: [a.name.[6 ..]]. *)
let bound_len (a : Xml_tree.attribute) = max 0 (String.length a.name - 6)

(* Does declaration [a] bind the prefix [s.[off .. off + len - 1]]
   ([len] = 0: the default namespace)? *)
let binds (a : Xml_tree.attribute) s off len =
  bound_len a = len && same_bytes a.name 6 s off len

(* The declarations from the binding of that prefix on, [] if unbound. *)
let rec find (env : env) s off len =
  match env with
  | [] -> env
  | a :: rest -> if binds a s off len then env else find rest s off len

let rec unbind (env : env) s off len =
  match env with
  | [] -> env
  | a :: rest -> if binds a s off len then rest else a :: unbind rest s off len

(* Put declaration [a] in force: nothing changes when its prefix is
   already bound to the same URI (as on nested calls, which each
   declare int), and it replaces the prefix's outer binding otherwise. *)
let declare env (a : Xml_tree.attribute) =
  let len = bound_len a in
  match find env a.name 6 len with
  | b :: _ when String.equal b.value a.value -> env
  | [] -> if List.length env >= max_bindings then raise Too_many_bindings else a :: env
  | _ -> a :: unbind env a.name 6 len

(* The URI the prefix of [name] is bound to (the default namespace's
   for a name without one). *)
let uri_of env name =
  match find env name 0 (max 0 (colon name)) with
  | [] -> None
  | a :: _ -> Some a.Xml_tree.value

(* Extend [env] with the xmlns declarations of [element], a later
   attribute shadowing an earlier one; [env] itself when it has none. *)
let extend env (element : Xml_tree.element) =
  if not (List.exists is_declaration element.attrs) then env
  else List.fold_left (fun env a -> if is_declaration a then declare env a else env) env element.attrs

let local_name name =
  match colon name with
  | -1 -> name
  | i -> String.sub name (i + 1) (String.length name - i - 1)

(* Namespace URI and local name of an element under [env], the
   environment in force at the element (its own declarations included,
   as [extend] and [iter_elements] give it). Elements without a prefix
   take the default namespace (if any). *)
let expanded_name env (element : Xml_tree.element) =
  (uri_of env element.name, local_name element.name)

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
   [local]? The local name is compared first, in place. *)
let element_is env ~uri ~local (element : Xml_tree.element) =
  let name = element.name in
  let c = colon name in
  let n = String.length local in
  String.length name = c + 1 + n
  && same_bytes name (c + 1) local 0 n
  &&
  match find env name 0 (max 0 c) with
  | [] -> false
  | a :: _ -> String.equal a.value uri
