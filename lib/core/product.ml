(* The cartesian product of A_w^k with the target language automaton,
   built on the fly.

   Instead of materializing the complete deterministic complement of the
   target schema (Figure 3, step c), the right-hand component is the
   *subset* of target-NFA states reached so far — determinization on
   demand. Every subset decision the complement DFA would make is
   available locally:
     - the empty subset is exactly the complement's accepting *sink*
       (the first pruning idea of Section 7 / Figure 12);
     - "complement-accepting" = the subset contains no final state;
     - "target-accepting" (for possible rewriting, Figure 9) = the subset
       contains a final state.
   Both the eager algorithm of Figure 3 and the lazy variant of Section 7
   drive this same structure; so does Figure 9's possible rewriting.

   The subset side does not depend on the word, so it lives in a
   [table] that every product over the same content model shares: the
   determinization is paid once per (subset, symbol), not once per
   analyzed word. Only the A_w^k side and the node interning are
   per-product. *)

module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto

module Subset_map = Map.Make (struct
  type t = Auto.Int_set.t
  let compare = Auto.Int_set.compare
end)

(* Subset 0 is the empty set (the complement's sink), subset 1 the start
   closure; both are interned when the table is created. *)
let empty_sid = 0
let start_sid = 1

type table = {
  nfa : Auto.Nfa.t;
  cols : int array;       (* dense symbol id -> column, -1 = not in the alphabet *)
  syms : Symbol.t array;  (* column -> symbol *)
  sets : Auto.Int_set.t Vec.t;     (* subset id -> target states *)
  mutable ids : int Subset_map.t;  (* target states -> subset id, fills only *)
  rows : int array Vec.t;  (* subset id -> column -> successor id, -1 = unknown *)
  accepting : Bitvec.t;    (* subset id -> contains a final state? *)
}

let intern tb set =
  match Subset_map.find_opt set tb.ids with
  | Some id -> id
  | None ->
    let id = Vec.push tb.sets set in
    ignore (Vec.push tb.rows (Array.make (Array.length tb.syms) (-1)));
    if not (Auto.Int_set.disjoint set tb.nfa.Auto.Nfa.finals) then
      Bitvec.set tb.accepting id;
    tb.ids <- Subset_map.add set id tb.ids;
    id

let table (nfa : Auto.Nfa.t) =
  let syms = Array.of_list (Auto.Sym_set.elements (Auto.Nfa.alphabet nfa)) in
  let sym_ids = Array.map Axml_schema.Sym_id.of_symbol syms in
  let cols = Array.make (1 + Array.fold_left max (-1) sym_ids) (-1) in
  Array.iteri (fun col id -> cols.(id) <- col) sym_ids;
  let tb =
    { nfa; cols; syms;
      sets = Vec.create ~dummy:Auto.Int_set.empty;
      ids = Subset_map.empty;
      rows = Vec.create ~dummy:[||];
      accepting = Bitvec.create () }
  in
  let empty = intern tb Auto.Int_set.empty in
  let start =
    intern tb
      (Auto.Nfa.eps_closure nfa (Auto.Int_set.singleton nfa.Auto.Nfa.start))
  in
  assert (empty = empty_sid && start = start_sid);
  tb

(* The subset reached from [sid] on the symbol with dense id [lid]. A
   symbol outside the target alphabet always leads to the empty subset;
   any other move is computed once per table and then read from its
   row. *)
let step tb sid lid =
  let col = if lid < Array.length tb.cols then tb.cols.(lid) else -1 in
  if col < 0 then empty_sid
  else
    let row = Vec.get tb.rows sid in
    let next = row.(col) in
    if next >= 0 then next
    else begin
      let set = Vec.get tb.sets sid in
      let next = intern tb (Auto.Nfa.step_set tb.nfa set tb.syms.(col)) in
      row.(col) <- next;
      next
    end

type node = { q : int; subset : int }

(* The successor array of a node not yet expanded (compared physically). *)
let unexpanded = [| -1 |]

type t = {
  fork : Fork_automaton.t;
  table : table;
  nodes : node Vec.t;
  (* nodes are interned per A_w^k state: [first_at.(q)] heads a chain of
     the nodes with that q, linked through [next_at] *)
  first_at : int array;
  next_at : int Vec.t;
  succs : int array Vec.t;  (* node id -> target node ids, [unexpanded] *)
}

let rec intern_node_from t q subset nid =
  if nid < 0 then begin
    let nid = Vec.push t.nodes { q; subset } in
    ignore (Vec.push t.next_at t.first_at.(q));
    ignore (Vec.push t.succs unexpanded);
    t.first_at.(q) <- nid;
    nid
  end
  else if (Vec.get t.nodes nid).subset = subset then nid
  else intern_node_from t q subset (Vec.get t.next_at nid)

let intern_node t q subset = intern_node_from t q subset t.first_at.(q)

let create ~fork ~table =
  let t =
    { fork; table;
      nodes = Vec.create ~dummy:{ q = 0; subset = 0 };
      first_at = Array.make fork.Fork_automaton.nstates (-1);
      next_at = Vec.create ~dummy:(-1);
      succs = Vec.create ~dummy:unexpanded }
  in
  let initial = intern_node t fork.Fork_automaton.start start_sid in
  assert (initial = 0);
  t

let initial _ = 0
let node t nid = Vec.get t.nodes nid
let node_count t = Vec.length t.nodes

(* Successors of a product node: the target along each A_w^k edge
   leaving its q, in out-edge order. Epsilon edges leave the subset
   untouched. Memoized; the expansion walks the fork automaton's CSR
   arrays and the table's rows and allocates only the result array. *)
let succ t nid =
  let s = Vec.get t.succs nid in
  if s != unexpanded then s
  else begin
    let { q; subset } = Vec.get t.nodes nid in
    let fork = t.fork in
    let lo = fork.Fork_automaton.out_off.(q) in
    let s = Array.make (fork.Fork_automaton.out_off.(q + 1) - lo) 0 in
    for i = 0 to Array.length s - 1 do
      let eid = fork.Fork_automaton.out_edge.(lo + i) in
      let lid = fork.Fork_automaton.edge_label_id.(eid) in
      let subset' = if lid < 0 then subset else step t.table subset lid in
      s.(i) <- intern_node t fork.Fork_automaton.edge_dst.(eid) subset'
    done;
    Vec.set t.succs nid s;
    s
  end

let succ_edge t nid i =
  let fork = t.fork in
  fork.Fork_automaton.out_edge.(fork.Fork_automaton.out_off.((node t nid).q) + i)

(* Word completed (q is the final state of A_w^k). *)
let word_done t nid = (node t nid).q = t.fork.Fork_automaton.final

(* Is the subset "dead": no continuation can reach the target language,
   and the current prefix is not in it. This is the complement's
   accepting sink. *)
let subset_is_dead t nid = (node t nid).subset = empty_sid

(* Does the current subset contain a target-accepting state? *)
let subset_accepting t nid = Bitvec.get t.table.accepting (node t nid).subset

(* Bad-accepting for SAFE rewriting: the word is complete but not in the
   target language (an accepting state of A_w^k x complement(R)). *)
let bad_accepting t nid = word_done t nid && not (subset_accepting t nid)

(* Good-accepting for POSSIBLE rewriting: complete and in the language. *)
let good_accepting t nid = word_done t nid && subset_accepting t nid

let fork t = t.fork
