(* POSSIBLE rewriting (Figure 9): does *some* choice of invocations and
   some choice of service outputs turn the word into the target language?
   In automata terms: is the intersection of A_w^k with the target
   language non-empty — i.e. can the initial product node reach a node
   where the word is complete and inside the language?

   All edges are existential here (no adversary), so the analysis is a
   plain backward reachability from the good-accepting nodes: [live]
   nodes are those with some outgoing path to acceptance (step 5 of
   Figure 9). The extracted rewriting only *may* succeed; execution
   ([Reference.follow_possible]) backtracks when a call's actual return value falls off every
   live path, as prescribed by step (c) of Figure 9. *)

type stats = { discovered_nodes : int; live_nodes : int }

type t = {
  product : Product.t;
  live : Bitvec.t;
  possible : bool;
  stats : stats;
}

let is_live t nid = Bitvec.get t.live nid

let analyze p =
  (* forward exploration of the full reachable product; the reverse
     graph goes into flat int vectors (head/next/pred chains) instead
     of per-node list refs, so discovery allocates nothing per edge *)
  let seen = Bitvec.create () in
  let rev_head = Vec.create ~dummy:(-1) in
  let rev_next = Vec.create ~dummy:(-1) in
  let rev_pred = Vec.create ~dummy:(-1) in
  let accepting = ref [] in
  let frontier = Queue.create () in
  let discover nid =
    if not (Bitvec.get seen nid) then begin
      Bitvec.set seen nid;
      if Product.good_accepting p nid then accepting := nid :: !accepting;
      Queue.add nid frontier
    end
  in
  discover (Product.initial p);
  while not (Queue.is_empty frontier) do
    let nid = Queue.take frontier in
    (* skip expanding dead subsets: nothing reachable from them accepts *)
    if not (Product.subset_is_dead p nid) then
      Array.iter
        (fun tgt ->
          Vec.ensure rev_head (tgt + 1);
          let j = Vec.push rev_pred nid in
          ignore (Vec.push rev_next (Vec.get rev_head tgt));
          Vec.set rev_head tgt j;
          discover tgt)
        (Product.succ p nid)
  done;
  (* backward reachability from accepting nodes *)
  let live = Bitvec.create () in
  let nlive = ref 0 in
  let back = Queue.create () in
  let mark_live nid =
    if not (Bitvec.get live nid) then begin
      Bitvec.set live nid;
      incr nlive;
      Queue.add nid back
    end
  in
  List.iter mark_live !accepting;
  while not (Queue.is_empty back) do
    let nid = Queue.take back in
    if nid < Vec.length rev_head then begin
      let j = ref (Vec.get rev_head nid) in
      while !j >= 0 do
        mark_live (Vec.get rev_pred !j);
        j := Vec.get rev_next !j
      done
    end
  done;
  { product = p;
    live;
    possible = Bitvec.get live (Product.initial p);
    stats = { discovered_nodes = Product.node_count p; live_nodes = !nlive } }
