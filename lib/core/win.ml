(* Winning-set tables: the rewriting games of Figures 3 and 9 solved
   once per (content model, depth) instead of once per children word.

   For a fixed target DFA and depth b, whether the rest of a word wins
   from a DFA state q depends only on the rest of the word, so a right
   to left pass computes the sets of winning states S_n .. S_0:

     S_n = the final states
     S_i = pre_{w_i}(S_{i+1})  U  Inv^b_{w_i}(S_{i+1})

   pre_a keeps the letter; Inv^b_f (empty unless f forks and b >= 1)
   invokes it. Inv^b_f(S) is the set at the start position of a
   fixpoint over the Glushkov positions p of tau_out f, one set W_p per
   position, with exit set S:

     W_p = [p final] S  /\  for every edge p -c-> p':
             pre_c(W_p')  U  Inv^{b-1}_c(W_p')   (the latter if c forks)

   where /\ is an intersection for the safe game (the adversary picks
   the edge, or exits at a final position) and a union for the possible
   game (every choice is existential); the safe game takes the greatest
   fixpoint, the possible game the least. Forks sit on Glushkov edges,
   so the player decides keep-or-invoke knowing the position the
   adversary chose and nothing after it: exactly the game Figure 3's
   marking (kept in the test oracle) solves on A_w^k. The DFA's reject state never wins, as the lazy
   marking's sink rule has it.

   Every step result is a table entry: (set, letter class) -> set per
   (kind, depth), and (function, exit set) -> the per-position sets W
   per (kind, depth). Entries are filled lazily, under the lock, and
   published immutably: sets and solved copies live in append-only
   vectors whose published prefix never changes, and the integer cells
   that point into them are validated against that prefix, so a lookup
   takes no lock. *)

module R = Axml_regex.Regex
module Schema = Axml_schema.Schema
module Symbol = Axml_schema.Symbol
module Auto = Axml_schema.Auto
module Dense = Axml_schema.Auto.Dfa.Dense
module Sym_id = Axml_schema.Sym_id
module Metrics = Axml_obs.Metrics

type kind = Safe | Possible

(* One output automaton by Glushkov position: the edges of position p
   are off.(p) .. off.(p+1) - 1, in the order a walk over its copy in
   A_w^k tries them. *)
type fn = {
  name : string;
  start : int;
  final : bool array;
  off : int array;
  sym : Symbol.t array;
  lid : int array;
  dst : int array;
  callee : int array;  (* index of the forking function the label calls, -1 *)
}

type automaton = fn

type t = {
  fns : fn array;
  index : (string, int) Hashtbl.t;  (* function -> its index; read-only *)
  fn_ids : int array;  (* function -> its dense symbol id *)
  lock : Mutex.t;      (* guards every fill, of every table *)
}

(* The Glushkov NFA of [regex] as a [fn]. Its edges come out of the
   fold grouped by ascending source position, in the order
   [Int_map]/[Sym_map]/[Int_set] iteration visits them. *)
let compile index name regex =
  let nfa = Auto.Nfa.glushkov regex in
  let edges =
    Auto.Int_map.fold
      (fun src row acc ->
        Auto.Sym_map.fold
          (fun sym dsts acc -> Auto.Int_set.fold (fun dst acc -> (src, sym, dst) :: acc) dsts acc)
          row acc)
      nfa.Auto.Nfa.delta []
    |> List.rev |> Array.of_list
  in
  let np = nfa.Auto.Nfa.size in
  let off = Array.make (np + 1) 0 in
  Array.iter (fun (p, _, _) -> off.(p + 1) <- off.(p + 1) + 1) edges;
  for p = 1 to np do off.(p) <- off.(p) + off.(p - 1) done;
  let callee = function
    | Symbol.Fun g -> Hashtbl.find_opt index g
    | Symbol.Label _ | Symbol.Data -> None
  in
  { name;
    start = nfa.Auto.Nfa.start;
    final = Array.init np (fun p -> Auto.Int_set.mem p nfa.Auto.Nfa.finals);
    off;
    sym = Array.map (fun (_, s, _) -> s) edges;
    lid = Array.map (fun (_, s, _) -> Sym_id.of_symbol s) edges;
    dst = Array.map (fun (_, _, d) -> d) edges;
    callee = Array.map (fun (_, s, _) -> Option.value (callee s) ~default:(-1)) edges }

(* Every invocable function with a non-empty output language forks;
   the others never do, so they get no automaton. *)
let create (env : Schema.env) =
  let output (f : Schema.func) =
    if not f.Schema.f_invocable then None
    else
      let r = Schema.compile_content env f.Schema.f_output in
      if R.is_empty_language r then None else Some r
  in
  let outputs =
    Schema.String_map.(bindings (filter_map (fun _ -> output) env.Schema.env_functions))
    |> Array.of_list
  in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (name, _) -> Hashtbl.replace index name i) outputs;
  let fns = Array.map (fun (name, r) -> compile index name r) outputs in
  { fns; index; fn_ids = Array.map (fun f -> Sym_id.of_fun f.name) fns; lock = Mutex.create () }

let automaton t regex = compile t.index "" regex

(* ------------------------------------------------------------------ *)
(* Published storage                                                   *)
(* ------------------------------------------------------------------ *)

(* Append-only vector: slots below [count] never change once published,
   so a reader indexes a snapshot below its count without a lock. *)
type 'a vec = { data : 'a array; count : int }

(* Lock held. Writes the slot past the published prefix, then
   publishes the longer prefix. *)
let push (cell : 'a vec Atomic.t) x =
  let v = Atomic.get cell in
  let data =
    if v.count < Array.length v.data then v.data
    else begin
      let d = Array.make (max 8 (2 * v.count)) x in
      Array.blit v.data 0 d 0 v.count;
      d
    end
  in
  data.(v.count) <- x;
  Atomic.set cell { data; count = v.count + 1 };
  v.count

(* Integer cells, -1 = unfilled. A cell is written once, under the
   lock; a racy reader sees -1 (and takes the lock) or the final value,
   which it checks against the published prefix it points into. *)
let cell_get (cell : int array Atomic.t) i =
  let a = Atomic.get cell in
  if i < Array.length a then Array.unsafe_get a i else -1

let cell_set (cell : int array Atomic.t) i v =
  let a = Atomic.get cell in
  let a =
    if i < Array.length a then a
    else begin
      let b = Array.make (max (i + 1) (2 * Array.length a)) (-1) in
      Array.blit a 0 b 0 (Array.length a);
      Atomic.set cell b;
      b
    end
  in
  a.(i) <- v

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* One (kind, depth) game over a table's DFA. *)
type game = {
  g_kind : kind;
  budget : int;
  step : int array Atomic.t;         (* set * nclasses + class -> set *)
  inv : int array Atomic.t array;    (* function -> exit set -> solved copy *)
}

(* The tables of one content model. A letter's class is its DFA column,
   or [width + f] for a forking function f outside the alphabet;
   letters of neither kind lead nowhere. *)
type table = {
  win : t;
  dfa : Dense.dense;
  nq : int;
  width : int;
  nclasses : int;
  class_of_id : int array;               (* dense symbol id -> class, -1 *)
  class_fn : int array;                  (* class -> forking function, -1 *)
  index : (string, int) Hashtbl.t;       (* set bits -> set id; lock held *)
  sets : string vec Atomic.t;            (* set id -> bits, bit q = state q *)
  solved : int array vec Atomic.t;       (* solved copy -> set id per position *)
  games : game vec Atomic.t;             (* 2 * depth + kind *)
  empty : int;
  finals : int;
}

let nbytes tb = (tb.nq + 7) / 8

let mem bits q = Char.code (Bytes.unsafe_get bits (q lsr 3)) land (1 lsl (q land 7)) <> 0
let add bits q =
  let i = q lsr 3 in
  Bytes.unsafe_set bits i (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits i) lor (1 lsl (q land 7))))

let combine op a b =
  for i = 0 to Bytes.length a - 1 do
    Bytes.unsafe_set a i
      (Char.unsafe_chr (op (Char.code (Bytes.unsafe_get a i)) (Char.code (Bytes.unsafe_get b i))))
  done

let union_into a b = combine ( lor ) a b
let inter_into a b = combine ( land ) a b

let bits_of tb set = Bytes.unsafe_of_string (Atomic.get tb.sets).data.(set)

(* Lock held (or during [table], before publication). *)
let intern tb bits =
  match Hashtbl.find_opt tb.index (Bytes.unsafe_to_string bits) with
  | Some id -> id
  | None ->
    let key = Bytes.to_string bits in
    let id = push tb.sets key in
    Hashtbl.add tb.index key id;
    id

let table win dfa =
  let nq = Dense.size dfa and width = Dense.width dfa in
  let nf = Array.length win.fns in
  let cols = Dense.columns dfa in
  let class_of_id =
    Array.make (max (Array.length cols) (Array.fold_left max (-1) win.fn_ids + 1)) (-1)
  in
  Array.blit cols 0 class_of_id 0 (Array.length cols);
  let class_fn = Array.make (width + nf) (-1) in
  Array.iteri
    (fun f id ->
      class_fn.(width + f) <- f;
      if class_of_id.(id) < 0 then class_of_id.(id) <- width + f
      else class_fn.(class_of_id.(id)) <- f)
    win.fn_ids;
  let tb =
    { win; dfa; nq; width; nclasses = width + nf; class_of_id; class_fn;
      index = Hashtbl.create 16;
      sets = Atomic.make { data = [||]; count = 0 };
      solved = Atomic.make { data = [||]; count = 0 };
      games = Atomic.make { data = [||]; count = 0 };
      empty = 0; finals = 0 }
  in
  let empty = intern tb (Bytes.make (nbytes tb) '\000') in
  let finals =
    let b = Bytes.make (nbytes tb) '\000' in
    for q = 0 to nq - 1 do if Dense.is_final dfa q then add b q done;
    intern tb b
  in
  { tb with empty; finals }

let set_count tb = (Atomic.get tb.sets).count
let game_index kind b = (2 * b) + (match kind with Safe -> 0 | Possible -> 1)

(* Lock held. *)
let game_locked tb kind b =
  let i = game_index kind b in
  while (Atomic.get tb.games).count <= i do
    let j = (Atomic.get tb.games).count in
    ignore
      (push tb.games
         { g_kind = (if j land 1 = 0 then Safe else Possible);
           budget = j / 2;
           step = Atomic.make [||];
           inv = Array.init (Array.length tb.win.fns) (fun _ -> Atomic.make [||]) })
  done;
  (Atomic.get tb.games).data.(i)

let game tb kind b =
  let v = Atomic.get tb.games and i = game_index kind b in
  if i < v.count then v.data.(i)
  else Mutex.protect tb.win.lock (fun () -> game_locked tb kind b)

(* ------------------------------------------------------------------ *)
(* Filling (lock held)                                                 *)
(* ------------------------------------------------------------------ *)

let class_of tb id =
  if id >= 0 && id < Array.length tb.class_of_id then Array.unsafe_get tb.class_of_id id
  else -1

(* The DFA column of a letter, -1 outside the alphabet. *)
let column tb id = let c = class_of tb id in if c < tb.width then c else -1

(* The states whose [col]-successor lies in [target]. *)
let pre_col tb col target =
  let bits = Bytes.make (nbytes tb) '\000' in
  if col >= 0 then
    for q = 0 to tb.nq - 1 do
      let d = Dense.step_column tb.dfa q col in
      if d >= 0 && mem target d then add bits q
    done;
  bits

let full tb =
  let b = Bytes.make (nbytes tb) '\000' in
  for q = 0 to tb.nq - 1 do add b q done;
  b

let result tb f solved =
  (Atomic.get tb.solved).data.(solved).(tb.win.fns.(f).start)

(* [fills] counts the entries filled on behalf of one analysis. *)
let rec step_locked tb g set c fills =
  let i = (set * tb.nclasses) + c in
  let v = cell_get g.step i in
  if v >= 0 then v
  else begin
    let bits = pre_col tb (if c < tb.width then c else -1) (bits_of tb set) in
    let f = tb.class_fn.(c) in
    if f >= 0 && g.budget >= 1 then
      union_into bits (bits_of tb (result tb f (solve_locked tb g f set fills)));
    let v = intern tb bits in
    cell_set g.step i v;
    incr fills;
    v
  end

(* Inv^b_f (or its possible twin) with exit set [set], at [g]'s depth
   b >= 1: the solved copy, one set per Glushkov position. *)
and solve_locked tb g f set fills =
  let v = cell_get g.inv.(f) set in
  if v >= 0 then v
  else begin
    let w = fixpoint tb g tb.win.fns.(f) (bits_of tb set) fills in
    let s = push tb.solved (Array.map (intern tb) w) in
    cell_set g.inv.(f) set s;
    incr fills;
    s
  end

(* The per-position sets W of automaton [fn] with exit set [exit], at
   [g]'s depth; nested calls go through the memoized entries. *)
and fixpoint tb g fn exit fills =
  let nested =
    if g.budget - 1 >= 1 then Some (game_locked tb g.g_kind (g.budget - 1)) else None
  in
  let np = Array.length fn.final in
  let base p =
    if fn.final.(p) then Bytes.copy exit
    else match g.g_kind with
      | Safe -> full tb
      | Possible -> Bytes.make (nbytes tb) '\000'
  in
  let w = Array.init np base in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = np - 1 downto 0 do
      let acc = base p in
      for e = fn.off.(p) to fn.off.(p + 1) - 1 do
        let target = w.(fn.dst.(e)) in
        let move = pre_col tb (column tb fn.lid.(e)) target in
        (match nested with
         | Some g' when fn.callee.(e) >= 0 ->
           let callee = fn.callee.(e) in
           let s = solve_locked tb g' callee (intern tb target) fills in
           union_into move (bits_of tb (result tb callee s))
         | Some _ | None -> ());
        match g.g_kind with
        | Safe -> inter_into acc move
        | Possible -> union_into acc move
      done;
      if not (Bytes.equal acc w.(p)) then begin
        w.(p) <- acc;
        changed := true
      end
    done
  done;
  w

(* ------------------------------------------------------------------ *)
(* Lookups (no lock unless an entry is missing)                        *)
(* ------------------------------------------------------------------ *)

let solved tb g f set =
  let s = cell_get g.inv.(f) set in
  if s >= 0 && s < (Atomic.get tb.solved).count then s
  else Mutex.protect tb.win.lock (fun () -> solve_locked tb g f set (ref 0))

let member tb set q =
  q >= 0 && mem (Bytes.unsafe_of_string (Atomic.get tb.sets).data.(set)) q

(* ------------------------------------------------------------------ *)
(* Analyses                                                            *)
(* ------------------------------------------------------------------ *)

type run = {
  tb : table;
  kind : kind;
  budget : int;
  word : Symbol.t list;
  ids : int array;
  sets : int array;  (* position i -> S_i *)
  mutable fills : int;
  mutable fill_seconds : float;
}

(* A missing entry is filled under the lock; the run counts the
   entries and the wall time (lock waits included). *)
let step r g set id =
  let tb = r.tb in
  let c = class_of tb id in
  if c < 0 then tb.empty
  else
    let v = cell_get g.step ((set * tb.nclasses) + c) in
    if v >= 0 && v < (Atomic.get tb.sets).count then v
    else begin
      let t0 = Metrics.now Metrics.default in
      let fills = ref 0 in
      let v = Mutex.protect tb.win.lock (fun () -> step_locked tb g set c fills) in
      r.fills <- r.fills + !fills;
      r.fill_seconds <- r.fill_seconds +. (Metrics.now Metrics.default -. t0);
      v
    end

let rec letter_ids ids i = function
  | [] -> ids
  | sym :: rest ->
    ids.(i) <- Sym_id.of_symbol sym;
    letter_ids ids (i + 1) rest

let solve tb kind ~budget word =
  let budget = max 0 budget in
  let g = game tb kind budget in
  let ids = letter_ids (Array.make (List.length word) 0) 0 word in
  let n = Array.length ids in
  let sets = Array.make (n + 1) tb.finals in
  let r = { tb; kind; budget; word; ids; sets; fills = 0; fill_seconds = 0. } in
  for i = n - 1 downto 0 do
    sets.(i) <- step r g sets.(i + 1) ids.(i)
  done;
  r

let ok r = member r.tb r.sets.(0) (Dense.start r.tb.dfa)
let kind r = r.kind
let fills r = r.fills
let fill_seconds r = r.fill_seconds

(* Section 6: the word of one call to [a] alone, at depth [budget]:
   S_1 = finals and S_0 = Inv^budget_a(finals), since the call's own
   letter names no function of the tables and leads nowhere. *)
let every_word tb kind ~budget a =
  Mutex.protect tb.win.lock (fun () ->
      let w = fixpoint tb (game_locked tb kind budget) a (bits_of tb tb.finals) (ref 0) in
      let q = Dense.start tb.dfa in
      q >= 0 && mem w.(a.start) q)

(* ------------------------------------------------------------------ *)
(* The strategy: walking (position, DFA state) pairs                   *)
(* ------------------------------------------------------------------ *)

(* A frame is the word itself or one invoked copy of an output
   automaton; [forks] is the depth a fork on one of its edges enters
   (none below 1). *)
type frame = {
  run : run;
  wins : int array;  (* position -> winning set *)
  forks : int;
  shape : shape;
}

and shape =
  | Word of Symbol.t array  (* the word's letters *)
  | Copy of { fn : fn; parent : frame; exit : int }

type node = { frame : frame; pos : int; s : int }

let initial run =
  { frame =
      { run; wins = run.sets; forks = run.budget; shape = Word (Array.of_list run.word) };
    pos = 0;
    s = Dense.start run.tb.dfa }

let good n = member n.frame.run.tb n.frame.wins.(n.pos) n.s

let enter frame f exit s =
  let tb = frame.run.tb in
  let g = game tb frame.run.kind frame.forks in
  let solved = solved tb g f frame.wins.(exit) in
  let fn = tb.win.fns.(f) in
  { frame =
      { run = frame.run;
        wins = (Atomic.get tb.solved).data.(solved);
        forks = frame.forks - 1;
        shape = Copy { fn; parent = frame; exit } };
    pos = fn.start;
    s }

(* The moves leave [n] along its frame's edges labeled [sym]: at a word
   position the next letter, in a copy the Glushkov edges of the
   position; every keep move first, then every fork, in edge order. *)
let rec keep_from n sym f fn e last =
  e < last
  && ((Symbol.equal fn.sym.(e) sym
       && f { n with pos = fn.dst.(e); s = Dense.step_id n.frame.run.tb.dfa n.s fn.lid.(e) })
      || keep_from n sym f fn (e + 1) last)

(* The function a word position forks into, -1. *)
let word_fork n =
  let r = n.frame.run in
  if n.pos < Array.length r.ids then
    let c = class_of r.tb r.ids.(n.pos) in
    if c < 0 then -1 else r.tb.class_fn.(c)
  else -1

let rec fork_from sym fn e last =
  e < last
  && ((fn.callee.(e) >= 0 && Symbol.equal fn.sym.(e) sym) || fork_from sym fn (e + 1) last)

let has_fork n sym =
  n.frame.forks >= 1
  &&
  match n.frame.shape with
  | Word syms -> word_fork n >= 0 && Symbol.equal syms.(n.pos) sym
  | Copy { fn; _ } -> fork_from sym fn fn.off.(n.pos) fn.off.(n.pos + 1)

let rec invoke_from n sym f fn e last =
  e < last
  && ((let callee = fn.callee.(e) in
       callee >= 0
       && Symbol.equal fn.sym.(e) sym
       && f n.frame.run.tb.win.fns.(callee).name (enter n.frame callee fn.dst.(e) n.s))
      || invoke_from n sym f fn (e + 1) last)

let moves n sym ~keep ~invoke =
  let forks = n.frame.forks >= 1 in
  match n.frame.shape with
  | Word syms ->
    let r = n.frame.run and i = n.pos in
    i < Array.length syms
    && Symbol.equal syms.(i) sym
    && (keep { n with pos = i + 1; s = Dense.step_id r.tb.dfa n.s r.ids.(i) }
        || forks
           && let callee = word_fork n in
           callee >= 0 && invoke r.tb.win.fns.(callee).name (enter n.frame callee (i + 1) n.s))
  | Copy { fn; _ } ->
    let first = fn.off.(n.pos) and last = fn.off.(n.pos + 1) in
    keep_from n sym keep fn first last || (forks && invoke_from n sym invoke fn first last)

let leave n =
  match n.frame.shape with
  | Copy { fn; parent; exit } when fn.final.(n.pos) ->
    Some { frame = parent; pos = exit; s = n.s }
  | Copy _ | Word _ -> None

let accepting n =
  match n.frame.shape with
  | Word _ -> n.pos = Array.length n.frame.wins - 1 && Dense.is_final n.frame.run.tb.dfa n.s
  | Copy _ -> false
