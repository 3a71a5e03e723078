(* Intensional documents (Definition 1): ordered labeled trees whose nodes
   are either data nodes (elements and atomic values) or function nodes
   (embedded service calls). The children of a function node are its call
   parameters; invoking the call replaces the node by the returned forest
   (Definition 4, footnote 3). *)

module Symbol = Axml_schema.Symbol
module Sym_id = Axml_schema.Sym_id

(* [id] is the dense {!Sym_id} of the node's letter, resolved once, by
   lookup, when the node is built: -1 when no schema had declared the
   name by then. The type is private so that every node is built by
   [elem] / [call] / [rebuild] and its id stays the one of its name. *)
type t =
  | Elem of { label : string; id : int; children : t list }
  | Data of string
  | Call of { name : string; id : int; params : t list }

type forest = t list

let elem label children = Elem { label; id = Sym_id.find_label label; children }
let data value = Data value
let call name params = Call { name; id = Sym_id.find_fun name; params }

(* The name is the interner's own string: a decoder that resolved the
   id from a slice of its input copies nothing. *)
let elem_of_id id children = Elem { label = Sym_id.name id; id; children }
let call_of_id id params = Call { name = Sym_id.name id; id; params }

(* The letter a node contributes to its parent's children word. *)
let symbol = function
  | Elem { label; _ } -> Symbol.Label label
  | Data _ -> Symbol.Data
  | Call { name; _ } -> Symbol.Fun name

let word (forest : forest) : Symbol.t list = List.map symbol forest

(* The dense id of that letter: the node's own, or by lookup when the
   node was built before a schema declared its name (-1 for a name no
   schema declared). *)
let sym_id = function
  | Elem { id; label; _ } -> if id >= 0 then id else Sym_id.find_label label
  | Data _ -> Sym_id.data
  | Call { id; name; _ } -> if id >= 0 then id else Sym_id.find_fun name

let children = function
  | Elem { children; _ } -> children
  | Call { params; _ } -> params
  | Data _ -> []

(* The same element or call over new children; its id is kept. *)
let rebuild node kids =
  match node with
  | Elem e -> Elem { e with children = kids }
  | Call c -> Call { c with params = kids }
  | Data _ -> invalid_arg "Document.rebuild: a data leaf has no children"

let rec count_nodes = function
  | Elem { children; _ } ->
    1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 children
  | Call { params; _ } ->
    1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 params
  | Data _ -> 1

let rec count_calls = function
  | Elem { children; _ } ->
    List.fold_left (fun acc c -> acc + count_calls c) 0 children
  | Call { params; _ } ->
    1 + List.fold_left (fun acc c -> acc + count_calls c) 0 params
  | Data _ -> 0

(* A document is extensional when it embeds no service call. *)
let is_extensional doc = count_calls doc = 0

let rec depth = function
  | Elem { children; _ } -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children
  | Call { params; _ } -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 params
  | Data _ -> 1

let rec equal d1 d2 =
  match d1, d2 with
  | Elem e1, Elem e2 ->
    String.equal e1.label e2.label
    && List.length e1.children = List.length e2.children
    && List.for_all2 equal e1.children e2.children
  | Data v1, Data v2 -> String.equal v1 v2
  | Call c1, Call c2 ->
    String.equal c1.name c2.name
    && List.length c1.params = List.length c2.params
    && List.for_all2 equal c1.params c2.params
  | (Elem _ | Data _ | Call _), _ -> false

let equal_forest f1 f2 =
  List.length f1 = List.length f2 && List.for_all2 equal f1 f2

(* ------------------------------------------------------------------ *)
(* Paths: addresses of nodes, as child-index sequences from the root.  *)
(* ------------------------------------------------------------------ *)

type path = int list

let pp_path ppf path = Fmt.pf ppf "/%a" Fmt.(list ~sep:(any "/") int) path

let get doc path =
  let rec go node = function
    | [] -> Some node
    | i :: rest ->
      (match List.nth_opt (children node) i with
       | Some child -> go child rest
       | None -> None)
  in
  go doc path

(* Replace the node at [path] by a forest (the semantics of invoking a
   call node: the returned trees are plugged in place of the node). The
   path must not be empty — a root node cannot be replaced by a forest. *)
let splice doc path replacement =
  let rec go node = function
    | [] -> invalid_arg "Document.splice: empty path"
    | [ i ] ->
      let kids = children node in
      if i < 0 || i >= List.length kids then invalid_arg "Document.splice: bad path";
      let kids =
        List.concat (List.mapi (fun j c -> if j = i then replacement else [ c ]) kids)
      in
      rebuild node kids
    | i :: rest ->
      let kids = children node in
      (match List.nth_opt kids i with
       | None -> invalid_arg "Document.splice: bad path"
       | Some child ->
         let kids = List.mapi (fun j c -> if j = i then go child rest else c) kids in
         rebuild node kids)
  in
  go doc path

(* The nesting depth of calls inside call parameters: 0 when no call has
   a call in its parameters. Used by the bottom-up parameter phase. *)
let rec call_nesting = function
  | Data _ -> 0
  | Elem { children; _ } ->
    List.fold_left (fun acc c -> max acc (call_nesting c)) 0 children
  | Call { params; _ } ->
    let inner =
      List.fold_left (fun acc c -> max acc (call_nesting c)) 0 params
    in
    let has_inner_call = List.exists (fun p -> count_calls p > 0) params in
    if has_inner_call then 1 + inner else inner

(* ------------------------------------------------------------------ *)
(* Printing: a compact term-like form used in tests and logs.          *)
(* ------------------------------------------------------------------ *)

let rec pp ppf = function
  | Data v -> Fmt.pf ppf "%S" v
  | Elem { label; children = []; _ } -> Fmt.pf ppf "%s[]" label
  | Elem { label; children; _ } ->
    Fmt.pf ppf "@[<hv 2>%s[%a]@]" label Fmt.(list ~sep:comma pp) children
  | Call { name; params = []; _ } -> Fmt.pf ppf "@%s()" name
  | Call { name; params; _ } ->
    Fmt.pf ppf "@[<hv 2>@%s(%a)@]" name Fmt.(list ~sep:comma pp) params

let pp_forest ppf forest = Fmt.(list ~sep:comma pp) ppf forest
let to_string doc = Fmt.str "%a" pp doc
