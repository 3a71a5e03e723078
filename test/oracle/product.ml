(* The cartesian product of A_w^k with the target language automaton,
   built on the fly.

   Instead of materializing the complete deterministic complement of the
   target schema (Figure 3, step c), the right-hand component is a state
   of the target's DFA: the subset construction of its Glushkov
   automaton, compiled once per content model ([Axml_core.Validate.model]) and
   read-only, so every product over the model steps the same tables.
   Every decision the complement DFA would make is available locally:
     - the reject state -1 (the empty subset) is exactly the
       complement's accepting *sink* (the first pruning idea of
       Section 7 / Figure 12);
     - "complement-accepting" = the state is not final;
     - "target-accepting" (for possible rewriting, Figure 9) = it is.
   Both the eager algorithm of Figure 3 and the lazy variant of Section 7
   drive this same structure; so does Figure 9's possible rewriting.
   Only the A_w^k side and the node interning are per-product. *)

module Dense = Axml_schema.Auto.Dfa.Dense

type node = { q : int; subset : int }

(* The successor array of a node not yet expanded (compared physically). *)
let unexpanded = [| -1 |]

type t = {
  fork : Fork_automaton.t;
  dfa : Dense.dense;
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

let create ~fork ~dfa =
  let t =
    { fork; dfa;
      nodes = Vec.create ~dummy:{ q = 0; subset = 0 };
      first_at = Array.make fork.Fork_automaton.nstates (-1);
      next_at = Vec.create ~dummy:(-1);
      succs = Vec.create ~dummy:unexpanded }
  in
  let initial = intern_node t fork.Fork_automaton.start (Dense.start dfa) in
  assert (initial = 0);
  t

let initial _ = 0
let node t nid = Vec.get t.nodes nid
let node_count t = Vec.length t.nodes

(* Successors of a product node: the target along each A_w^k edge
   leaving its q, in out-edge order. Epsilon edges leave the subset
   untouched. Memoized; the expansion walks the fork automaton's CSR
   arrays and the DFA's rows and allocates only the result array. *)
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
      let subset' = if lid < 0 then subset else Dense.step_id t.dfa subset lid in
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
let subset_is_dead t nid = (node t nid).subset < 0

(* Does the current subset contain a target-accepting state? *)
let subset_accepting t nid = Dense.is_final t.dfa (node t nid).subset

(* Bad-accepting for SAFE rewriting: the word is complete but not in the
   target language (an accepting state of A_w^k x complement(R)). *)
let bad_accepting t nid = word_done t nid && not (subset_accepting t nid)

(* Good-accepting for POSSIBLE rewriting: complete and in the language. *)
let good_accepting t nid = word_done t nid && subset_accepting t nid

let fork t = t.fork
