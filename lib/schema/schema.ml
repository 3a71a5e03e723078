(* Document schemas for intensional XML (Definition 2), extended with the
   richer features of Section 2.1: function patterns, wildcards and the
   invocable / non-invocable partition.

   Content models are regular expressions over [atom]s; compiling a
   schema resolves atoms to the word alphabet [Symbol.t] relative to an
   environment (the finite sets of known labels and functions), expanding
   patterns and wildcards into the alternation of their members — exactly
   how the paper's implementation treats them. *)

module R = Axml_regex.Regex
module String_map = Map.Make (String)
module String_set = Set.Make (String)

type atom =
  | A_label of string        (* an element type *)
  | A_fun of string          (* a specific function (Web service) *)
  | A_pattern of string      (* a function pattern (Section 2.1) *)
  | A_data                   (* the "data" keyword *)
  | A_any_element            (* wildcard: any known element *)
  | A_any_fun                (* wildcard: any known function *)

type content = atom R.t

type func = {
  f_name : string;
  f_input : content;   (* tau_in *)
  f_output : content;  (* tau_out *)
  f_invocable : bool;  (* Section 2.1, "Restricted service invocations" *)
  f_endpoint : string option;   (* locator attributes of the XML syntax *)
  f_namespace : string option;
}

type pattern = {
  p_name : string;
  p_predicates : string list;
    (* names of boolean predicate services, e.g. ["UDDIF"; "InACL"];
       a function matches if every predicate accepts its name *)
  p_input : content;
  p_output : content;
  p_invocable : bool;
}

type t = {
  elements : content String_map.t;  (* tau on labels *)
  functions : func String_map.t;    (* tau_in / tau_out on function names *)
  patterns : pattern String_map.t;
  root : string option;             (* distinguished root label, if any *)
}

type error =
  | Undeclared_name of string            (* used in a content model, never declared *)
  | Duplicate_declaration of string
  | Pattern_in_signature of string       (* patterns may not appear in signatures *)
  | Nondeterministic_content of string   (* label whose model is not 1-unambiguous *)
  | Incompatible_function of string      (* same name, different definitions, on merge *)

exception Schema_error of error

let pp_error ppf = function
  | Undeclared_name n -> Fmt.pf ppf "name %S is used but never declared" n
  | Duplicate_declaration n -> Fmt.pf ppf "name %S is declared twice" n
  | Pattern_in_signature n ->
    Fmt.pf ppf "function pattern %S appears inside a function signature" n
  | Nondeterministic_content l ->
    Fmt.pf ppf "content model of %S is not deterministic (1-unambiguous)" l
  | Incompatible_function f ->
    Fmt.pf ppf "function %S has different definitions in the two schemas" f

let pp_atom ppf = function
  | A_label l -> Fmt.string ppf l
  | A_fun f -> Fmt.string ppf f
  | A_pattern p -> Fmt.pf ppf "%s" p
  | A_data -> Fmt.string ppf "#data"
  | A_any_element -> Fmt.string ppf "#any"
  | A_any_fun -> Fmt.string ppf "#anyfun"

let pp_content ppf c = R.pp pp_atom ppf c

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let empty = {
  elements = String_map.empty;
  functions = String_map.empty;
  patterns = String_map.empty;
  root = None;
}

let declared_names s =
  String_set.union
    (String_set.of_seq (Seq.map fst (String_map.to_seq s.elements)))
    (String_set.union
       (String_set.of_seq (Seq.map fst (String_map.to_seq s.functions)))
       (String_set.of_seq (Seq.map fst (String_map.to_seq s.patterns))))

let add_element s name content =
  if String_set.mem name (declared_names s) then
    raise (Schema_error (Duplicate_declaration name));
  { s with elements = String_map.add name content s.elements }

let add_function s (f : func) =
  if String_set.mem f.f_name (declared_names s) then
    raise (Schema_error (Duplicate_declaration f.f_name));
  { s with functions = String_map.add f.f_name f s.functions }

let add_pattern s (p : pattern) =
  if String_set.mem p.p_name (declared_names s) then
    raise (Schema_error (Duplicate_declaration p.p_name));
  { s with patterns = String_map.add p.p_name p s.patterns }

let with_root s root = { s with root = Some root }

let find_element s name = String_map.find_opt name s.elements
let find_function s name = String_map.find_opt name s.functions
let find_pattern s name = String_map.find_opt name s.patterns

let element_names s = List.map fst (String_map.bindings s.elements)
let function_names s = List.map fst (String_map.bindings s.functions)

let func ?(invocable = true) ?endpoint ?namespace name ~input ~output = {
  f_name = name;
  f_input = input;
  f_output = output;
  f_invocable = invocable;
  f_endpoint = endpoint;
  f_namespace = namespace;
}

let pattern ?(invocable = true) ?(predicates = []) name ~input ~output = {
  p_name = name;
  p_predicates = predicates;
  p_input = input;
  p_output = output;
  p_invocable = invocable;
}

(* ------------------------------------------------------------------ *)
(* Resolution of raw string regexes into atoms                          *)
(* ------------------------------------------------------------------ *)

(* Names in a parsed content model resolve against the declarations of
   the schema under construction: declared functions and patterns win,
   anything else is an element label. Keywords: #data, #any, #anyfun. *)
let resolve_content ~functions ~patterns (raw : string R.t) : content =
  R.map
    (fun name ->
      if String.equal name "#data" then A_data
      else if String.equal name "#any" then A_any_element
      else if String.equal name "#anyfun" then A_any_fun
      else if String_set.mem name functions then A_fun name
      else if String_set.mem name patterns then A_pattern name
      else A_label name)
    raw

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

let atoms_of_content c = R.symbols c

(* Every label / function / pattern mentioned in a content model must be
   declared; signatures must not mention patterns (they would make
   pattern membership self-referential). *)
let check_declared s =
  let check_atom ~in_signature = function
    | A_label l ->
      if not (String_map.mem l s.elements) then
        raise (Schema_error (Undeclared_name l))
    | A_fun f ->
      if not (String_map.mem f s.functions) then
        raise (Schema_error (Undeclared_name f))
    | A_pattern p ->
      if in_signature then raise (Schema_error (Pattern_in_signature p));
      if not (String_map.mem p s.patterns) then
        raise (Schema_error (Undeclared_name p))
    | A_data | A_any_element | A_any_fun -> ()
  in
  String_map.iter
    (fun _ c -> List.iter (check_atom ~in_signature:false) (atoms_of_content c))
    s.elements;
  String_map.iter
    (fun _ (f : func) ->
      List.iter (check_atom ~in_signature:true) (atoms_of_content f.f_input);
      List.iter (check_atom ~in_signature:true) (atoms_of_content f.f_output))
    s.functions;
  String_map.iter
    (fun _ (p : pattern) ->
      List.iter (check_atom ~in_signature:true) (atoms_of_content p.p_input);
      List.iter (check_atom ~in_signature:true) (atoms_of_content p.p_output))
    s.patterns;
  (match s.root with
   | Some r when not (String_map.mem r s.elements) ->
     raise (Schema_error (Undeclared_name r))
   | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* Compilation: atoms -> Symbol.t, with patterns/wildcards expanded     *)
(* ------------------------------------------------------------------ *)

(* The environment a schema compiles against: the finite universe of
   labels and functions (typically the union of the exchange schema, the
   sender schema s0 and the registry) plus the oracle deciding pattern
   membership predicates (the paper implements these as boolean Web
   services; tests plug in plain OCaml functions). *)
type env = {
  env_labels : String_set.t;
  env_functions : func String_map.t;
  env_patterns : pattern String_map.t;
  predicate : string -> string -> bool;
    (* [predicate pred_name fun_name]: does the predicate service accept
       this function? Default accepts everything. *)
}

(* Interning every declared name here is what lets a document built
   afterwards carry its nodes' symbol ids from the start (documents
   themselves never intern). *)
let env_of_schema ?(predicate = fun _ _ -> true) s =
  let env_labels = String_set.of_list (element_names s) in
  String_set.iter (fun l -> ignore (Sym_id.of_label l)) env_labels;
  String_map.iter (fun f _ -> ignore (Sym_id.of_fun f)) s.functions;
  { env_labels; env_functions = s.functions; env_patterns = s.patterns; predicate }

(* Merge two schemas into one environment. Common functions must agree
   (the paper's simplifying assumption in Section 4, justified by WSDL
   descriptions being unique per provider); element types may freely
   differ — the whole point of rewriting is that the sender's and the
   receiver's element structures disagree — and the receiving side's
   (right argument's) version wins where both declare a label. *)
let merge s0 s =
  let elements =
    String_map.union (fun _ _ c -> Some c) s0.elements s.elements
  in
  let functions =
    String_map.union
      (fun name (f0 : func) (f : func) ->
        if R.equal (fun a b -> a = b) f0.f_input f.f_input
           && R.equal (fun a b -> a = b) f0.f_output f.f_output
        then
          (* a call is legal only if both parties allow it: invocability
             is the conjunction of the two declarations *)
          Some { f with f_invocable = f0.f_invocable && f.f_invocable }
        else raise (Schema_error (Incompatible_function name)))
      s0.functions s.functions
  in
  let patterns =
    String_map.union (fun _ _ p -> Some p) s0.patterns s.patterns
  in
  { elements; functions; patterns; root = s.root }

let env_of_schemas ?predicate s0 s = env_of_schema ?predicate (merge s0 s)

(* Compile a signature content (no patterns allowed) to a symbol regex. *)
let rec compile_signature env (c : content) : Symbol.t R.t =
  let expand = function
    | A_label l -> R.sym (Symbol.Label l)
    | A_fun f -> R.sym (Symbol.Fun f)
    | A_data -> R.sym Symbol.Data
    | A_any_element ->
      R.alt_list
        (List.map (fun l -> R.sym (Symbol.Label l))
           (String_set.elements env.env_labels))
    | A_any_fun ->
      R.alt_list
        (List.map (fun (f, _) -> R.sym (Symbol.Fun f))
           (String_map.bindings env.env_functions))
    | A_pattern p -> raise (Schema_error (Pattern_in_signature p))
  in
  flatten_atoms expand c

and flatten_atoms expand (c : content) : Symbol.t R.t =
  match c with
  | Empty -> R.empty
  | Epsilon -> R.epsilon
  | Sym a -> expand a
  | Seq (c1, c2) -> R.seq (flatten_atoms expand c1) (flatten_atoms expand c2)
  | Alt (c1, c2) -> R.alt (flatten_atoms expand c1) (flatten_atoms expand c2)
  | Star c1 -> R.star (flatten_atoms expand c1)
  | Plus c1 -> R.plus (flatten_atoms expand c1)
  | Opt c1 -> R.opt (flatten_atoms expand c1)

(* Signature equality: language equivalence of input and output types. *)
let signatures_match env ~(required_input : content) ~(required_output : content)
    (f : func) =
  let dfa c = Auto.Dfa.of_regex (compile_signature env c) in
  Auto.Dfa.equal_language (dfa required_input) (dfa f.f_input)
  && Auto.Dfa.equal_language (dfa required_output) (dfa f.f_output)

(* A function [f] belongs to pattern [p] if its name satisfies every
   predicate of [p] and its signature matches (Section 2.1). *)
let pattern_members env (p : pattern) : func list =
  String_map.fold
    (fun _ f acc ->
      let predicates_ok =
        List.for_all (fun pred -> env.predicate pred f.f_name) p.p_predicates
      in
      if predicates_ok
         && signatures_match env ~required_input:p.p_input
              ~required_output:p.p_output f
      then f :: acc
      else acc)
    env.env_functions []

(* Compile a full content model (patterns allowed) to a symbol regex. *)
let compile_content env (c : content) : Symbol.t R.t =
  let expand = function
    | A_label l -> R.sym (Symbol.Label l)
    | A_fun f -> R.sym (Symbol.Fun f)
    | A_data -> R.sym Symbol.Data
    | A_any_element ->
      R.alt_list
        (List.map (fun l -> R.sym (Symbol.Label l))
           (String_set.elements env.env_labels))
    | A_any_fun ->
      R.alt_list
        (List.map (fun (f, _) -> R.sym (Symbol.Fun f))
           (String_map.bindings env.env_functions))
    | A_pattern pname ->
      (match String_map.find_opt pname env.env_patterns with
       | None -> raise (Schema_error (Undeclared_name pname))
       | Some p ->
         R.alt_list
           (List.map (fun (f : func) -> R.sym (Symbol.Fun f.f_name))
              (pattern_members env p)))
  in
  flatten_atoms expand c

(* The content model of a label, compiled; [None] if the label is not
   declared. *)
let compiled_element env s name =
  Option.map (compile_content env) (find_element s name)

(* tau_out of a function or pattern-member function, compiled. *)
let compiled_output env name =
  match String_map.find_opt name env.env_functions with
  | Some f -> Some (compile_content env f.f_output)
  | None -> None

let is_invocable env name =
  match String_map.find_opt name env.env_functions with
  | Some f -> f.f_invocable
  | None -> false

(* Determinism check (XML Schema's 1-unambiguity; the paper relies on it
   for the polynomial complexity bound). *)
let check_deterministic env s =
  String_map.iter
    (fun name c ->
      if not (Auto.deterministic_regex (compile_content env c)) then
        raise (Schema_error (Nondeterministic_content name)))
    s.elements

(* Full validity check; call after construction. *)
let check ?(deterministic = false) s =
  check_declared s;
  if deterministic then check_deterministic (env_of_schema s) s

(* All symbols a schema can ever mention, used to close alphabets. *)
let alphabet env s =
  let add_content acc c =
    R.fold_symbols
      (fun acc a ->
        match a with
        | A_label l -> Auto.Sym_set.add (Symbol.Label l) acc
        | A_fun f -> Auto.Sym_set.add (Symbol.Fun f) acc
        | A_data -> Auto.Sym_set.add Symbol.Data acc
        | A_any_element ->
          String_set.fold
            (fun l acc -> Auto.Sym_set.add (Symbol.Label l) acc)
            env.env_labels acc
        | A_any_fun ->
          String_map.fold
            (fun f _ acc -> Auto.Sym_set.add (Symbol.Fun f) acc)
            env.env_functions acc
        | A_pattern pname ->
          (match String_map.find_opt pname env.env_patterns with
           | None -> acc
           | Some p ->
             List.fold_left
               (fun acc (f : func) -> Auto.Sym_set.add (Symbol.Fun f.f_name) acc)
               acc (pattern_members env p)))
      acc c
  in
  let acc =
    String_map.fold
      (fun name c acc -> add_content (Auto.Sym_set.add (Symbol.Label name) acc) c)
      s.elements Auto.Sym_set.empty
  in
  let acc =
    String_map.fold
      (fun name (f : func) acc ->
        add_content (add_content (Auto.Sym_set.add (Symbol.Fun name) acc) f.f_input)
          f.f_output)
      s.functions acc
  in
  acc

let pp ppf s =
  Fmt.pf ppf "@[<v>";
  (match s.root with
   | Some r -> Fmt.pf ppf "root %s@," r
   | None -> ());
  String_map.iter
    (fun name c -> Fmt.pf ppf "element %s = %a@," name pp_content c)
    s.elements;
  String_map.iter
    (fun name (f : func) ->
      Fmt.pf ppf "function%s %s : %a -> %a@,"
        (if f.f_invocable then "" else " (non-invocable)")
        name pp_content f.f_input pp_content f.f_output)
    s.functions;
  String_map.iter
    (fun name (p : pattern) ->
      Fmt.pf ppf "pattern%s %s%a : %a -> %a@,"
        (if p.p_invocable then "" else " (non-invocable)")
        name
        Fmt.(list ~sep:nop (fun ppf pr -> Fmt.pf ppf " [%s]" pr))
        p.p_predicates pp_content p.p_input pp_content p.p_output)
    s.patterns;
  Fmt.pf ppf "@]"
