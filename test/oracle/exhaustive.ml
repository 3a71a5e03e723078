(* Brute-force reference semantics for the rewriting games, usable when
   every output type has a FINITE language (star-free signatures).

   Two purposes:

   - Cross-checking: the automata-based engines (Marking, Possible) are
     property-tested against [safe] / [possible] below on random
     star-free instances. [safe] lets the player see a whole output
     word before deciding on the calls inside it, where Marking only
     knows the Glushkov position the adversary chose; the two agree at
     k <= 1 (see exhaustive.mli), [possible] at every k.

   - Exploring the paper's left-to-right restriction (Section 3): the
     paper notes that "one can miss a successful rewriting that is not
     left-to-right". [safe_arbitrary] plays the game with NO ordering
     restriction — the rewriter may invoke any pending occurrence at any
     time, in particular probing a right sibling before committing on a
     left one. [safe ... => safe_arbitrary ...] always holds; the
     converse fails on witnesses like

       w = f.g,  target = a.b | f.c,  f: () -> a,  g: () -> b|c

     where the winning strategy must see g's answer before deciding
     whether to invoke f. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

exception Not_star_free

(* Enumerate the (finite) language of a star-free regex.
   @raise Not_star_free on starred expressions. *)
let rec enum_language (r : Symbol.t R.t) : Symbol.t list list =
  match r with
  | R.Empty -> []
  | R.Epsilon -> [ [] ]
  | R.Sym a -> [ [ a ] ]
  | R.Seq (r1, r2) ->
    let l1 = enum_language r1 and l2 = enum_language r2 in
    List.concat_map (fun w1 -> List.map (fun w2 -> w1 @ w2) l2) l1
  | R.Alt (r1, r2) -> enum_language r1 @ enum_language r2
  | R.Opt r1 -> [] :: enum_language r1
  | R.Star _ | R.Plus _ -> raise Not_star_free

(* The finite output sets of every invocable function of [env], or
   [None] for functions that can never be fired. *)
let outputs_of_env (env : Schema.env) : string -> Symbol.t list list option =
  let cache : (string, Symbol.t list list option) Hashtbl.t = Hashtbl.create 8 in
  fun fname ->
    match Hashtbl.find_opt cache fname with
    | Some v -> v
    | None ->
      let v =
        match Schema.String_map.find_opt fname env.Schema.env_functions with
        | None -> None
        | Some f ->
          if not f.Schema.f_invocable then None
          else
            let words =
              enum_language (Schema.compile_content env f.Schema.f_output)
            in
            (match List.sort_uniq compare words with
             | [] -> None  (* empty output language: the call never returns *)
             | ws -> Some ws)
      in
      Hashtbl.add cache fname v;
      v

type item = Symbol.t * int  (* symbol, remaining depth budget *)

let items_of_word ~k word = List.map (fun s -> (s, k)) word

let in_language dfa items =
  Auto.Dfa.accepts dfa (List.map fst items)

(* Completion alphabet: the target's own letters plus everything the
   word and the outputs of every function it can reach may contain.
   Each function's outputs are expanded once (a fixpoint over function
   names), so the cost is linear in the signatures whatever k is; the
   result is a superset of what any play reaches, and the extra letters
   only lead to the completion sink. *)
let closure_alphabet ~outputs ~(target_dfa : Auto.Dfa.t) word =
  let expanded = Hashtbl.create 8 in
  let rec add_word acc w = List.fold_left add_sym acc w
  and add_sym acc sym =
    let acc = Auto.Sym_set.add sym acc in
    match sym with
    | Symbol.Fun f when not (Hashtbl.mem expanded f) ->
      Hashtbl.add expanded f ();
      (match outputs f with
       | Some outs -> List.fold_left add_word acc outs
       | None -> acc)
    | Symbol.Fun _ | Symbol.Label _ | Symbol.Data -> acc
  in
  add_word target_dfa.Auto.Dfa.alphabet word

(* ------------------------------------------------------------------ *)
(* The k-depth LEFT-TO-RIGHT game (the paper's restriction)            *)
(* ------------------------------------------------------------------ *)

(* [decide ~universal]: process items left to right with the target DFA;
   at each invocable occurrence, either keep the letter or invoke —
   invoking quantifies over the outputs (universally for SAFE,
   existentially for POSSIBLE). *)
let decide ~universal ~outputs ~target_dfa ~k word =
  let dfa =
    Auto.Dfa.complete ~alphabet:(closure_alphabet ~outputs ~target_dfa word)
      target_dfa
  in
  let step st sym =
    match Auto.Dfa.step dfa st sym with
    | Some st' -> st'
    | None -> assert false (* complete *)
  in
  let memo : (item list * int, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec go items st =
    match Hashtbl.find_opt memo (items, st) with
    | Some v -> v
    | None ->
      let v =
        match items with
        | [] -> Auto.Dfa.is_final dfa st
        | (sym, budget) :: rest ->
          let keep = go rest (step st sym) in
          keep
          ||
          (match sym with
           | Symbol.Fun f when budget > 0 ->
             (match outputs f with
              | None -> false
              | Some outs ->
                let branch o =
                  go (List.map (fun s -> (s, budget - 1)) o @ rest) st
                in
                if universal then List.for_all branch outs
                else List.exists branch outs)
           | Symbol.Fun _ | Symbol.Label _ | Symbol.Data -> false)
      in
      Hashtbl.add memo (items, st) v;
      v
  in
  go (items_of_word ~k word) dfa.Auto.Dfa.start

let safe ~outputs ~target_dfa ~k word =
  decide ~universal:true ~outputs ~target_dfa ~k word

let possible ~outputs ~target_dfa ~k word =
  decide ~universal:false ~outputs ~target_dfa ~k word

(* ------------------------------------------------------------------ *)
(* The k-depth ARBITRARY-ORDER game (no left-to-right restriction)     *)
(* ------------------------------------------------------------------ *)

(* safe_arbitrary(w): w in R, or SOME invocable occurrence exists such
   that EVERY output leads to a safely-rewritable word. Memoized on the
   whole item word; budgets strictly decrease so the recursion
   terminates. Exponential — intended for small words and signatures. *)
let safe_arbitrary ~outputs ~target_dfa ~k word =
  let dfa =
    Auto.Dfa.complete ~alphabet:(closure_alphabet ~outputs ~target_dfa word)
      target_dfa
  in
  let memo : (item list, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec go items =
    match Hashtbl.find_opt memo items with
    | Some v -> v
    | None ->
      (* break the (impossible) cycle defensively *)
      Hashtbl.add memo items false;
      let v =
        in_language dfa items
        ||
        let rec try_positions prefix = function
          | [] -> false
          | ((sym, budget) as it) :: rest ->
            (match sym with
             | Symbol.Fun f when budget > 0 ->
               (match outputs f with
                | Some outs ->
                  let branch o =
                    go
                      (List.rev_append prefix
                         (List.map (fun s -> (s, budget - 1)) o @ rest))
                  in
                  List.for_all branch outs
                | None -> false)
             | Symbol.Fun _ | Symbol.Label _ | Symbol.Data -> false)
            || try_positions (it :: prefix) rest
        in
        try_positions [] items
      in
      Hashtbl.replace memo items v;
      v
  in
  go (items_of_word ~k word)
