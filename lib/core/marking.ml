(* The marking game of Figure 3 (steps 15-18), deciding SAFE rewriting.

   A product node is *marked* ("bad") when the adversary — the services,
   which choose actual output words — can force the completed word out of
   the target language no matter which invoke/keep choices the rewriter
   makes:
     - a node where the word is complete but not in the language is
       marked (the accepting states of A_w^k x complement(R));
     - a non-fork successor marked => the node is marked (the adversary
       picks the letter);
     - a fork whose BOTH options are marked => the node is marked (the
       rewriter has no good choice left).
   A safe rewriting exists iff the initial node is unmarked; the
   rewriter's strategy is "always move to an unmarked node".

   Two exploration policies build the same fixpoint:
     - [analyze_eager]: materialize every reachable product node first,
       then propagate marks — the literal algorithm of Figure 3;
     - [analyze_lazy]: the optimized variant of Section 7 (Figure 12) —
       construct on demand, mark complement-sink nodes immediately
       (empty subsets), never expand nodes already known marked, and stop
       as soon as the initial node is marked. *)

(* Game kinds are packed into ints (tag in the low two bits, pair id
   above) so a reverse edge costs two int-vector slots instead of a
   list cell and a boxed constructor:
     0                 — Plain (adversary edge)
     (pid lsl 2) lor 1 — Keep half of fork pair pid ("do not invoke")
     (pid lsl 2) lor 2 — Invoke half of fork pair pid *)
let k_plain = 0
let k_keep pid = (pid lsl 2) lor 1
let k_invoke pid = (pid lsl 2) lor 2

type stats = {
  explored_nodes : int;         (* product nodes whose successors were computed *)
  discovered_nodes : int;       (* product nodes created *)
  marked_nodes : int;
  pruned : int;                 (* nodes never expanded thanks to pruning *)
}

type t = {
  product : Product.t;
  marked : Bitvec.t;
  safe : bool;
  stats : stats;
}

let is_marked t nid = Bitvec.get t.marked nid

(* The reverse product graph and the fork pairs live in flat parallel
   int vectors and bit vectors (array-of-struct -> struct-of-arrays):
   reverse edge j is (rev_pred.(j), rev_kind.(j)), and rev_next.(j)
   chains to the next edge of the same target, headed by rev_head. The
   propagation loop therefore touches only int arrays and bytes — no
   per-edge or per-pair heap blocks. *)
type builder = {
  p : Product.t;
  marks : Bitvec.t;
  rev_head : int Vec.t;    (* node id -> newest incoming edge, -1 = none *)
  rev_next : int Vec.t;
  rev_pred : int Vec.t;
  rev_kind : int Vec.t;    (* packed game kind, see [k_plain] etc. *)
  pair_owner : int Vec.t;  (* pair id -> owning (fork) node *)
  pair_keep : Bitvec.t;    (* keep half marked? *)
  pair_invoke : Bitvec.t;  (* invoke half marked? *)
  last_pair : int array;   (* fork id -> its most recent pair id, -1 = none *)
  work : int Queue.t;      (* freshly marked nodes to propagate *)
  mutable nmarked : int;
}

let new_builder p = {
  p;
  marks = Bitvec.create ();
  rev_head = Vec.create ~dummy:(-1);
  rev_next = Vec.create ~dummy:(-1);
  rev_pred = Vec.create ~dummy:(-1);
  rev_kind = Vec.create ~dummy:0;
  pair_owner = Vec.create ~dummy:(-1);
  pair_keep = Bitvec.create ();
  pair_invoke = Bitvec.create ();
  last_pair = Array.make (Array.length (Product.fork p).Fork_automaton.forks) (-1);
  work = Queue.create ();
  nmarked = 0;
}

let rec mark b nid =
  if not (Bitvec.get b.marks nid) then begin
    Bitvec.set b.marks nid;
    b.nmarked <- b.nmarked + 1;
    Queue.add nid b.work;
    drain b
  end

(* Apply the game rule for one incoming edge of a marked node. *)
and apply_rule b pred kind =
  match kind land 3 with
  | 0 -> mark b pred
  | 1 ->
    let pid = kind lsr 2 in
    if not (Bitvec.get b.pair_keep pid) then begin
      Bitvec.set b.pair_keep pid;
      if Bitvec.get b.pair_invoke pid then mark b (Vec.get b.pair_owner pid)
    end
  | _ ->
    let pid = kind lsr 2 in
    if not (Bitvec.get b.pair_invoke pid) then begin
      Bitvec.set b.pair_invoke pid;
      if Bitvec.get b.pair_keep pid then mark b (Vec.get b.pair_owner pid)
    end

and drain b =
  while not (Queue.is_empty b.work) do
    let nid = Queue.take b.work in
    if nid < Vec.length b.rev_head then begin
      let j = ref (Vec.get b.rev_head nid) in
      while !j >= 0 do
        apply_rule b (Vec.get b.rev_pred !j) (Vec.get b.rev_kind !j);
        j := Vec.get b.rev_next !j
      done
    end
  done

(* Register the product edge [pred --kind--> tgt]; if the target is
   already marked the rule fires immediately. *)
let register_edge b pred kind tgt =
  Vec.ensure b.rev_head (tgt + 1);
  let j = Vec.push b.rev_pred pred in
  ignore (Vec.push b.rev_kind kind);
  ignore (Vec.push b.rev_next (Vec.get b.rev_head tgt));
  Vec.set b.rev_head tgt j;
  if Bitvec.get b.marks tgt then apply_rule b pred kind

(* The pair of fork [fid] at node [nid]. A node is expanded at most
   once, so both halves of its pair are met in the same expansion: the
   fork's most recent pair is this node's exactly when it is owned by
   [nid]. *)
let pair_id b nid fid =
  let last = b.last_pair.(fid) in
  if last >= 0 && Vec.get b.pair_owner last = nid then last
  else begin
    let pid = Vec.push b.pair_owner nid in
    b.last_pair.(fid) <- pid;
    pid
  end

(* Expand one node: compute successors and register reverse edges with
   their game kinds. *)
let expand b nid =
  let fork = Product.fork b.p in
  let succs = Product.succ b.p nid in
  for i = 0 to Array.length succs - 1 do
    let eid = Product.succ_edge b.p nid i in
    let fid = fork.Fork_automaton.fork_of_edge.(eid) in
    let kind =
      if fid < 0 then k_plain
      else begin
        let pid = pair_id b nid fid in
        if eid = fork.Fork_automaton.forks.(fid).Fork_automaton.keep_edge
        then k_keep pid
        else k_invoke pid
      end
    in
    register_edge b nid kind succs.(i)
  done

let finish b ~explored ~pruned =
  let discovered = Product.node_count b.p in
  { product = b.p;
    marked = b.marks;
    safe = not (Bitvec.get b.marks (Product.initial b.p));
    stats = { explored_nodes = explored; discovered_nodes = discovered;
              marked_nodes = b.nmarked; pruned } }

(* ------------------------------------------------------------------ *)
(* Eager: Figure 3 verbatim                                            *)
(* ------------------------------------------------------------------ *)

let analyze_eager p =
  let b = new_builder p in
  let seen = Bitvec.create () in
  let frontier = Queue.create () in
  let discover nid =
    if not (Bitvec.get seen nid) then begin
      Bitvec.set seen nid;
      if Product.bad_accepting p nid then mark b nid;
      Queue.add nid frontier
    end
  in
  discover (Product.initial p);
  let explored = ref 0 in
  while not (Queue.is_empty frontier) do
    let nid = Queue.take frontier in
    incr explored;
    expand b nid;
    Array.iter discover (Product.succ p nid)
  done;
  finish b ~explored:!explored ~pruned:0

(* ------------------------------------------------------------------ *)
(* Lazy: Section 7's pruned construction                               *)
(* ------------------------------------------------------------------ *)

let analyze_lazy p =
  let b = new_builder p in
  let seen = Bitvec.create () in
  let frontier = Queue.create () in
  let initial = Product.initial p in
  let discover nid =
    if not (Bitvec.get seen nid) then begin
      Bitvec.set seen nid;
      (* sink rule: an empty subset is the complement's accepting sink —
         mark immediately, and never expand (pruning idea 1) *)
      if Product.subset_is_dead p nid then mark b nid
      else if Product.bad_accepting p nid then mark b nid;
      Queue.add nid frontier
    end
  in
  discover initial;
  let explored = ref 0 in
  let pruned = ref 0 in
  (try
     while not (Queue.is_empty frontier) do
       if Bitvec.get b.marks initial then raise Exit;
       let nid = Queue.take frontier in
       if Bitvec.get b.marks nid then
         (* pruning idea 2: no point exploring beyond a marked node *)
         incr pruned
       else begin
         incr explored;
         expand b nid;
         Array.iter discover (Product.succ p nid)
       end
     done
   with Exit -> ());
  finish b ~explored:!explored ~pruned:!pruned
