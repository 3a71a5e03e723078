(* Schema validation (Definition 3): a document is an instance of a
   schema when every data node's children word is in the language of its
   label's content model and every function node's parameter word is in
   the language of its input type.

   A [ctx] is the one compiled form of a schema: every content model,
   input type and output type is determinized once, at creation, into a
   [model] (the regex and its dense DFA) that validation, the rewriting
   games and enforcement all step. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

type violation_kind =
  | Unknown_label of string
  | Unknown_function of string
  | Content_mismatch of { label : string; word : Symbol.t list }
  | Input_mismatch of { fname : string; word : Symbol.t list }
  | Root_mismatch of { expected : string; found : string }

type violation = { at : Document.path; kind : violation_kind }

let pp_word = Fmt.(list ~sep:(any ".") Symbol.pp)

let pp_violation_kind ppf = function
  | Unknown_label l -> Fmt.pf ppf "element type %S is not declared" l
  | Unknown_function f -> Fmt.pf ppf "function %S is not declared" f
  | Content_mismatch { label; word } ->
    Fmt.pf ppf "children of <%s> form %a, outside its content model" label pp_word word
  | Input_mismatch { fname; word } ->
    Fmt.pf ppf "parameters of %s() form %a, outside its input type" fname pp_word word
  | Root_mismatch { expected; found } ->
    Fmt.pf ppf "root is <%s> but the schema requires <%s>" found expected

let pp_violation ppf v =
  Fmt.pf ppf "%a: %a" Document.pp_path v.at pp_violation_kind v.kind

module Dense = Auto.Dfa.Dense
module Sym_id = Axml_schema.Sym_id

type model = { regex : Symbol.t R.t; dfa : Dense.dense }

(* The one determinization of a content model: the Glushkov automaton's
   subset construction, frozen into dense tables. *)
let compile regex =
  { regex; dfa = Dense.compile ~sym_id:Sym_id.of_symbol (Auto.Dfa.of_regex regex) }

(* Filled once, by [ctx], and only read afterwards: a ctx may be shared
   by any number of domains. A node's model sits at its letter's dense
   symbol id: a label's content model at the label's id, a function's
   input type at the function's. *)
type ctx = {
  env : Schema.env;
  schema : Schema.t;
  by_id : model option array;
  outputs : (string, model) Hashtbl.t;
}

(* Input/output types come from the environment: the validating peer
   knows the WSDL of every function, including ones declared only by the
   other party's schema. *)
let ctx ?env schema =
  let env = match env with Some e -> e | None -> Schema.env_of_schema schema in
  let compiled content = compile (Schema.compile_content env content) in
  let functions = Schema.String_map.bindings env.Schema.env_functions in
  let models =
    List.map
      (fun (label, content) -> (Sym_id.of_label label, compiled content))
      (Schema.String_map.bindings schema.Schema.elements)
    @ List.map (fun (f, (func : Schema.func)) -> (Sym_id.of_fun f, compiled func.Schema.f_input))
        functions
  in
  let by_id = Array.make (List.fold_left (fun n (id, _) -> max n (id + 1)) 1 models) None in
  List.iter (fun (id, m) -> by_id.(id) <- Some m) models;
  let outputs = Hashtbl.create 16 in
  List.iter
    (fun (f, (func : Schema.func)) -> Hashtbl.replace outputs f (compiled func.Schema.f_output))
    functions;
  { env; schema; by_id; outputs }

let model_of_id ctx id = if id >= 0 && id < Array.length ctx.by_id then ctx.by_id.(id) else None
let element_model ctx label = model_of_id ctx (Sym_id.find_label label)
let input_model ctx fname = model_of_id ctx (Sym_id.find_fun fname)
let models ctx = List.filter_map Fun.id (Array.to_list ctx.by_id)

(* Membership of a children forest in a dense content model: steps the
   flat tables directly over the children, no word list, no allocation.
   The reject state (-1) is absorbing, so the loop can stop early. *)
let rec accepts_from dense s = function
  | [] -> Dense.is_final dense s
  | child :: rest ->
    s >= 0 && accepts_from dense (Dense.step_id dense s (Document.sym_id child)) rest

let forest_accepted dense children = accepts_from dense (Dense.start dense) children

(* ------------------------------------------------------------------ *)
(* The one static walk                                                 *)
(* ------------------------------------------------------------------ *)

(* The root rule: a schema with a distinguished root label requires the
   document to be that element. *)
let root_violation ctx (doc : Document.t) =
  match ctx.schema.Schema.root, doc with
  | Some expected, Document.Elem { label; _ } when not (String.equal label expected) ->
    Some { at = []; kind = Root_mismatch { expected; found = label } }
  | Some expected, (Document.Data _ | Document.Call _) ->
    Some { at = []; kind = Root_mismatch { expected; found = "(not an element)" } }
  | _ -> None

(* The model rule, for one node and its model ([None]: undeclared).
   The word is only built for an offence. *)
let node_violation (node : Document.t) own =
  match node, own with
  | Document.Data _, _ -> None
  | Document.Elem { label; _ }, None -> Some (Unknown_label label)
  | Document.Call { name; _ }, None -> Some (Unknown_function name)
  | Document.Elem { label; children; _ }, Some m ->
    if forest_accepted m.dfa children then None
    else Some (Content_mismatch { label; word = Document.word children })
  | Document.Call { name; params; _ }, Some m ->
    if forest_accepted m.dfa params then None
    else Some (Input_mismatch { fname = name; word = Document.word params })

(* Prefix order over the elements and calls; data leaves are judged
   against nothing, so they are skipped (they still count in their
   siblings' indices). Each node's model is looked up once, by its
   letter's id, and handed down to its children as the model of the
   word they sit in. A visited node allocates only its path cell. *)
let fold ctx ?(rev_path = []) f doc acc =
  let rec node rev_path enclosing (n : Document.t) acc =
    match n with
    | Document.Data _ -> acc
    | Document.Elem { children = kids; _ } | Document.Call { params = kids; _ } ->
      let own = model_of_id ctx (Document.sym_id n) in
      forest rev_path own 0 kids (f rev_path n own enclosing acc)
  and forest rev_path enclosing i kids acc =
    match kids with
    | [] -> acc
    | Document.Data _ :: rest -> forest rev_path enclosing (i + 1) rest acc
    | kid :: rest ->
      forest rev_path enclosing (i + 1) rest (node (i :: rev_path) enclosing kid acc)
  in
  node rev_path None doc acc

let push rev_path node own _enclosing acc =
  match node_violation node own with
  | None -> acc
  | Some kind -> { at = List.rev rev_path; kind } :: acc

let violations ctx doc = List.rev (fold ctx push doc [])

let document_violations ctx doc =
  List.rev (fold ctx push doc (Option.to_list (root_violation ctx doc)))

exception Offence

(* Boolean twin of [document_violations]: no lists, and the walk stops
   at the first offence. *)
let document_conforms ctx doc =
  Option.is_none (root_violation ctx doc)
  &&
  let check _ node own _ () =
    if Option.is_some (node_violation node own) then raise_notrace Offence
  in
  match fold ctx check doc () with () -> true | exception Offence -> false

(* Output-instance check (Definition 3, second part): the forest a
   service returned, against its declared output type. *)
let output_instance ctx fname (forest : Document.forest) =
  match Hashtbl.find_opt ctx.outputs fname with
  | None -> [ { at = []; kind = Unknown_function fname } ]
  | Some m ->
    let word_ok =
      if forest_accepted m.dfa forest then []
      else
        [ { at = [];
            kind =
              Content_mismatch { label = fname ^ "() output"; word = Document.word forest } } ]
    in
    let _, acc =
      List.fold_left
        (fun (i, acc) tree -> (i + 1, fold ctx ~rev_path:[ i ] push tree acc))
        (0, word_ok) forest
    in
    List.rev acc
