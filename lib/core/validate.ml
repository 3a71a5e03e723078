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
   by any number of domains. *)
type ctx = {
  env : Schema.env;
  schema : Schema.t;
  elements : (string, model) Hashtbl.t;
  inputs : (string, model) Hashtbl.t;
  outputs : (string, model) Hashtbl.t;
}

(* Input/output types come from the environment: the validating peer
   knows the WSDL of every function, including ones declared only by the
   other party's schema. *)
let ctx ?env schema =
  let env = match env with Some e -> e | None -> Schema.env_of_schema schema in
  let table bindings content =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (name, x) ->
        Hashtbl.replace tbl name (compile (Schema.compile_content env (content x))))
      bindings;
    tbl
  in
  let functions = Schema.String_map.bindings env.Schema.env_functions in
  { env; schema;
    elements = table (Schema.String_map.bindings schema.Schema.elements) Fun.id;
    inputs = table functions (fun (f : Schema.func) -> f.Schema.f_input);
    outputs = table functions (fun (f : Schema.func) -> f.Schema.f_output) }

let element_model ctx label = Hashtbl.find_opt ctx.elements label
let input_model ctx fname = Hashtbl.find_opt ctx.inputs fname

let models ctx =
  Hashtbl.fold (fun _ m acc -> m :: acc) ctx.elements
    (Hashtbl.fold (fun _ m acc -> m :: acc) ctx.inputs [])

(* Dense id of one child, without building a Symbol.t. *)
let child_id = function
  | Document.Elem { label; _ } -> Sym_id.of_label label
  | Document.Data _ -> Sym_id.data
  | Document.Call { name; _ } -> Sym_id.of_fun name

(* Membership of a children forest in a dense content model: steps the
   flat tables directly over the children, no word list, no allocation.
   The reject state (-1) is absorbing, so the loop can stop early. *)
let forest_accepted dense children =
  let rec run s = function
    | [] -> Dense.is_final dense s
    | child :: rest -> s >= 0 && run (Dense.step_id dense s (child_id child)) rest
  in
  run (Dense.start dense) children

(* Collect the violations of [doc] against the schema, prefix order. *)
let violations ctx (doc : Document.t) : violation list =
  let acc = ref [] in
  let push at kind = acc := { at; kind } :: !acc in
  let rec visit path node =
    (match node with
     | Document.Data _ -> ()
     | Document.Elem { label; children } ->
       (match element_model ctx label with
        | None -> push (List.rev path) (Unknown_label label)
        | Some m ->
          if not (forest_accepted m.dfa children) then
            let word = Document.word children in
            push (List.rev path) (Content_mismatch { label; word }))
     | Document.Call { name; params } ->
       (match input_model ctx name with
        | None -> push (List.rev path) (Unknown_function name)
        | Some m ->
          if not (forest_accepted m.dfa params) then
            let word = Document.word params in
            push (List.rev path) (Input_mismatch { fname = name; word })));
    List.iteri (fun i child -> visit (i :: path) child) (Document.children node)
  in
  visit [] doc;
  List.rev !acc

(* Boolean twin of [violations]: no paths, no lists, early exit on the
   first offence — the per-document gate of warm enforcement. *)
let rec conforms ctx (node : Document.t) =
  (match node with
   | Document.Data _ -> true
   | Document.Elem { label; children } ->
     (match element_model ctx label with
      | None -> false
      | Some m -> forest_accepted m.dfa children)
   | Document.Call { name; params } ->
     (match input_model ctx name with
      | None -> false
      | Some m -> forest_accepted m.dfa params))
  && List.for_all (conforms ctx) (Document.children node)

(* As [violations], additionally requiring the schema's distinguished
   root label (Definition 6 context). *)
let document_violations ctx doc =
  let root_violations =
    match ctx.schema.Schema.root, doc with
    | Some expected, Document.Elem { label; _ } when not (String.equal label expected) ->
      [ { at = []; kind = Root_mismatch { expected; found = label } } ]
    | Some expected, (Document.Data _ | Document.Call _) ->
      [ { at = []; kind = Root_mismatch { expected; found = "(not an element)" } } ]
    | _ -> []
  in
  root_violations @ violations ctx doc

(* Boolean twin of [document_violations]. *)
let document_conforms ctx (doc : Document.t) =
  (match ctx.schema.Schema.root, doc with
   | Some expected, Document.Elem { label; _ } -> String.equal label expected
   | Some _, (Document.Data _ | Document.Call _) -> false
   | None, _ -> true)
  && conforms ctx doc

(* Output-instance check (Definition 3, second part): the forest a
   service returned, against its declared output type. *)
let instance table ~mismatch ctx fname (forest : Document.forest) =
  match Hashtbl.find_opt table fname with
  | None -> [ { at = []; kind = Unknown_function fname } ]
  | Some m ->
    let word_ok =
      if forest_accepted m.dfa forest then []
      else [ { at = []; kind = mismatch (Document.word forest) } ]
    in
    word_ok
    @ List.concat (List.mapi (fun i tree ->
          List.map (fun v -> { v with at = i :: v.at }) (violations ctx tree))
        forest)

let output_instance ctx fname =
  instance ctx.outputs ctx fname ~mismatch:(fun word ->
      Content_mismatch { label = fname ^ "() output"; word })

let input_instance ctx fname =
  instance ctx.inputs ctx fname ~mismatch:(fun word -> Input_mismatch { fname; word })
