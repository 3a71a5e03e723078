(* The paper's own engines, driven from a contract: the product of
   A_w^k with the target DFA, the Figure 3/9 strategies walked by
   [Walk.walk] (optionally in a cost plan's order), and Section 6's
   reduction on a product. Production answers all of these from the
   contract's win tables; these are what the tables are tested
   against. *)

module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module Contract = Axml_core.Contract
module Validate = Axml_core.Validate

let product ?k c ~target_regex word =
  Product.create
    ~fork:
      (Fork_automaton.build
         ~outputs:(Fork_automaton.outputs (Contract.env c))
         ~k:(Option.value k ~default:(Contract.k c))
         word)
    ~dfa:(Validate.compile target_regex).Validate.dfa

(* The walk's view of a product whose good nodes are [good]. Without a
   plan the options come keep first, then invoke, each in out-edge
   order; with one, cheapest estimated remainder first ([fee] prices an
   invoke option's own call), the cost minimization of Figure 3 step 23
   / Figure 9 step (d). *)
let game ?plan ?(fee = fun _ -> 0.) p good : int Walk.game =
  let fork = Product.fork p in
  let q_of nid = (Product.node p nid).Product.q in
  let step nid eid =
    let succs = Product.succ p nid in
    let n = Array.length succs in
    let rec find i =
      if i >= n then assert false
      else if Product.succ_edge p nid i = eid then succs.(i)
      else find (i + 1)
    in
    find 0
  in
  (* the fork whose copy ends at an A_w^k state, -1 *)
  let copy_fork = Array.make fork.Fork_automaton.nstates (-1) in
  Array.iteri
    (fun fid (f : Fork_automaton.fork) ->
      Auto.Int_set.iter (fun q -> copy_fork.(q) <- fid) f.Fork_automaton.copy_finals)
    fork.Fork_automaton.forks;
  (* the edges leaving [nid] labeled [sym], in out-edge order *)
  let exists_edge nid sym visit =
    let q = q_of nid in
    let last = fork.Fork_automaton.out_off.(q + 1) - 1 in
    let rec go i =
      i <= last
      && begin
        let eid = fork.Fork_automaton.out_edge.(i) in
        (match fork.Fork_automaton.edge_label.(eid) with
         | Some s -> Symbol.equal s sym && visit eid
         | None -> false)
        || go (i + 1)
      end
    in
    go fork.Fork_automaton.out_off.(q)
  in
  (* the fork whose keep option is [eid] *)
  let keep_fork eid =
    match Fork_automaton.fork_of_edge fork eid with
    | Some f when eid = f.Fork_automaton.keep_edge -> Some f
    | Some _ | None -> None
  in
  let exists_keep nid sym f = exists_edge nid sym (fun eid -> f (step nid eid)) in
  let exists_fork nid sym f =
    exists_edge nid sym (fun eid ->
        match keep_fork eid with
        | Some fk -> f fk.Fork_automaton.fname (step nid fk.Fork_automaton.invoke_edge)
        | None -> false)
  in
  let moves nid sym ~keep ~invoke =
    match plan with
    | None -> exists_keep nid sym keep || exists_fork nid sym invoke
    | Some estimate ->
      let candidates = ref [] in
      let collect c = candidates := c :: !candidates; false in
      ignore (exists_keep nid sym (fun tgt -> collect (estimate tgt, `Keep tgt)));
      ignore
        (exists_fork nid sym (fun callee enter ->
             collect (fee callee +. estimate enter, `Invoke (callee, enter))));
      List.exists
        (fun (_, move) ->
          match move with
          | `Keep tgt -> keep tgt
          | `Invoke (callee, enter) -> invoke callee enter)
        (List.stable_sort (fun (c1, _) (c2, _) -> Float.compare c1 c2) (List.rev !candidates))
  in
  { Walk.good;
    has_fork = (fun nid sym -> exists_edge nid sym (fun eid -> keep_fork eid <> None));
    moves;
    leave =
      (fun nid ->
        let q = q_of nid in
        let fid = copy_fork.(q) in
        if fid < 0 then None
        else
          Option.map (step nid)
            (Fork_automaton.exit_edge fork fork.Fork_automaton.forks.(fid) q));
    accepting = Product.good_accepting p }

let follow_safe ?plan ?fee ?validate ?reenforce (m : Marking.t) invoker items =
  let p = m.Marking.product in
  Walk.walk ?validate ?reenforce ~possible:false
    (game ?plan ?fee p (fun nid -> not (Marking.is_marked m nid)))
    (Product.initial p) invoker items

let follow_possible ?plan ?fee ?validate ?reenforce (a : Possible.t) invoker items =
  let p = a.Possible.product in
  Walk.walk ?validate ?reenforce ~possible:true
    (game ?plan ?fee p (Possible.is_live a))
    (Product.initial p) invoker items

(* Section 6 on products: the call g_l with output [content] (compiled
   in the contract's environment), alone in a word, at fork depth
   d + 1. g_l gets its output automaton under a name longer than every
   function of the environment, so nothing else can mention it. Each
   depth is searched on its own, without assuming monotonicity. *)
let section6_minimal_k c ~target_regex content =
  let env = Contract.env c in
  let longest =
    Schema.String_map.fold (fun f _ n -> max n (String.length f)) env.Schema.env_functions 0
  in
  let g = String.make (longest + 1) '#' in
  let outputs =
    Fork_automaton.add_output (Fork_automaton.outputs env) g (Schema.compile_content env content)
  in
  let dfa = (Validate.compile target_regex).Validate.dfa in
  let product d =
    Product.create ~dfa ~fork:(Fork_automaton.build ~outputs ~k:(d + 1) [ Symbol.Fun g ])
  in
  let rec first pred d = if d > Contract.k c then None else if pred d then Some d else first pred (d + 1) in
  { Contract.safe_at = first (fun d -> (Marking.analyze_lazy (product d)).Marking.safe) 0;
    possible_at = first (fun d -> (Possible.analyze (product d)).Possible.possible) 0 }
