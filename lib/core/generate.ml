(* Random instance generation: documents, output instances and words
   drawn from a schema. Drives the property-based tests and the
   adversarial / random service oracles ("the adversary picks any output
   instance" in Definition 4). *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

exception Generation_failed of string

type t = {
  env : Schema.env;
  schema : Schema.t;
  rng : Random.State.t;
  max_depth : int;     (* hard recursion cutoff *)
  call_probability : float;
    (* when a content model offers both a function and its materialized
       alternative, how often sampling keeps the function *)
  fuel : int;
    (* star-unrolling budget at the root, decaying with depth: the size
       knob workload mixes turn to fatten or thin documents *)
}

let create ?(seed = 0x5eed) ?(max_depth = 24) ?(call_probability = 0.5)
    ?(fuel = 4) ?env schema =
  let env = match env with Some e -> e | None -> Schema.env_of_schema schema in
  { env; schema; rng = Random.State.make [| seed |]; max_depth;
    call_probability; fuel }

let rand_int g n = if n <= 0 then 0 else Random.State.int g.rng n

(* Sample a word of a compiled content model. Star unrollings are fuel
   bounded so sampling always terminates. *)
let sample_word g ?(fuel = 6) (regex : Symbol.t R.t) : Symbol.t list =
  match Auto.sample_word ~rand_int:(rand_int g) ~fuel regex with
  | Some w -> w
  | None -> raise (Generation_failed "content model has an empty language")

let random_data g =
  let pool = [| "alpha"; "beta"; "42"; "Paris"; "2003-06-09"; "x" |] in
  pool.(rand_int g (Array.length pool))

(* Generate a subtree for one word letter; [depth] bounds recursion. *)
let rec tree_for_symbol g depth (sym : Symbol.t) : Document.t =
  if depth > g.max_depth then
    raise (Generation_failed "schema recursion exceeds the generation depth limit");
  match sym with
  | Symbol.Data -> Document.data (random_data g)
  | Symbol.Label label ->
    (match Schema.find_element g.schema label with
     | None ->
       raise (Generation_failed (Fmt.str "no declaration for element %S" label))
     | Some content ->
       let regex = Schema.compile_content g.env content in
       let word = sample_word g ~fuel:(max 0 (g.fuel - depth / 4)) regex in
       Document.elem label (List.map (tree_for_symbol g (depth + 1)) word))
  | Symbol.Fun fname ->
    (match Schema.String_map.find_opt fname g.env.Schema.env_functions with
     | None ->
       raise (Generation_failed (Fmt.str "no declaration for function %S" fname))
     | Some f ->
       let regex = Schema.compile_content g.env f.Schema.f_input in
       let word = sample_word g ~fuel:(max 0 (g.fuel - 1 - depth / 4)) regex in
       Document.call fname (List.map (tree_for_symbol g (depth + 1)) word))

(* A random instance of element type [label]. *)
let instance g label = tree_for_symbol g 0 (Symbol.Label label)

(* A random document for the schema's distinguished root. *)
let document g =
  match g.schema.Schema.root with
  | Some root -> instance g root
  | None -> raise (Generation_failed "the schema declares no root label")

(* A random output instance of function [fname]: what an honest service
   implementing the signature may return (Definition 3). *)
let output_instance g fname : Document.forest =
  match Schema.String_map.find_opt fname g.env.Schema.env_functions with
  | None -> raise (Generation_failed (Fmt.str "no declaration for function %S" fname))
  | Some f ->
    let regex = Schema.compile_content g.env f.Schema.f_output in
    let word = sample_word g regex in
    List.map (tree_for_symbol g 0) word
