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
  lid : int array;  (* the edge's letter, a dense symbol id *)
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
      let d = Array.make (Int.max 8 (2 * v.count)) x in
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
      let b = Array.make (Int.max (i + 1) (2 * Array.length a)) (-1) in
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
    Array.make (Int.max (Array.length cols) (Array.fold_left Int.max (-1) win.fn_ids + 1)) (-1)
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
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

type fault = { fname : string; attempts : int; cause : exn }

type invocation = {
  inv_name : string;
  inv_params : Document.forest;
  inv_result : Document.forest;
}

(* A frame holds one word's analysis and walk: its letters and winning
   sets, the walk's answer table, and the record of the calls the
   walk's service answered. The next word overwrites all of it, so a
   word walked in a frame taken from the pool below allocates none of
   it: what a walk allocates is its output and the copies it enters. *)
type run = {
  busy : bool Atomic.t;  (* held by a walk *)
  mutable tb : table;
  mutable kind : kind;
  mutable budget : int;
  mutable len : int;  (* the word's letters are ids.(0 .. len - 1) *)
  mutable ids : int array;
  mutable sets : int array;  (* position i -> S_i, for i <= len *)
  mutable fills : int;
  mutable fill_ns : int;
  (* The answer table. The word's items are occurrences 0 .. len - 1;
     the items of an answer are numbered from its base on when it
     arrives, so backtracking meets the same numbers. [bases.(occ)] is
     the base of the answer at [occ] (its items at [answers.(occ)]),
     [unasked] or [out]. *)
  mutable bases : int array;
  mutable answers : Document.forest array;
  mutable occurrences : int;  (* occurrences numbered so far *)
  mutable asked : int array;  (* the occurrences asked, [0 .. nasked - 1] *)
  mutable nasked : int;
  (* The calls answered, in order, with what each returned. *)
  mutable calls : int;
  mutable invocations : invocation array;
  mutable refused : int;  (* the first call whose answer was refused, -1 *)
  mutable failed : fault option;  (* the first call that failed *)
}

let unasked = -1
let out = -2

(* What a free slot of the call record holds. *)
let nobody = { inv_name = ""; inv_params = []; inv_result = [] }

(* The table of a frame that has solved nothing. A free frame keeps the
   table of its last word, one table a frame. *)
let idle =
  table
    { fns = [||]; index = Hashtbl.create 1; fn_ids = [||]; lock = Mutex.create () }
    (Dense.compile ~sym_id:Sym_id.of_symbol (Auto.Dfa.of_regex R.epsilon))

let make busy =
  { busy = Atomic.make busy; tb = idle; kind = Safe; budget = 0; len = 0;
    ids = [||]; sets = [||]; fills = 0; fill_ns = 0;
    bases = [||]; answers = [||]; occurrences = 0; asked = [||]; nasked = 0;
    calls = 0; invocations = [||];
    refused = -1; failed = None }

let frame () = make false

(* An array grows to at least [least] entries, then by doubling. A
   frame given back keeps an array of at most [kept] entries and drops
   a larger one, as [Spare_buffer] drops large buffers, so one long
   word does not stay resident. *)
let least = 64
let kept = 1024
let capacity now need = Int.max need (Int.max least (2 * now))

(* The record, its flag and six arrays of at most [kept] entries. *)
let kept_words = 19 + 2 + (6 * (kept + 1))

(* Each domain keeps a stack of frames. A walk takes the first free one
   by a compare-and-set on its flag: the systhreads of one domain share
   the stack (a served request can yield at a service call, in the
   middle of a walk) and a re-enforcement nests one walk inside
   another, so plain domain-local scratch would be handed out twice.
   When every frame is busy a fresh one is made and pushed, up to
   [pooled] frames a domain. *)
let pooled = 32

(* A pool frame has every array at [least] entries from the start. *)
let sized busy =
  let r = make busy in
  r.ids <- Array.make least 0;
  r.sets <- Array.make least 0;
  r.bases <- Array.make least unasked;
  r.answers <- Array.make least [];
  r.asked <- Array.make least 0;
  r.invocations <- Array.make least nobody;
  r

(* A domain's pool starts with [prepared] frames: two systhreads, each
   with a re-enforcement walk nested in its walk, hold four. A frame
   made later, when a systhread was switched out in the middle of a
   walk, would otherwise stay resident from then on. *)
let prepared = 4

let pool : run array Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make (Array.init prepared (fun _ -> sized false)))

let rec push cell r =
  let frames = Atomic.get cell in
  if Array.length frames < pooled
     && not (Atomic.compare_and_set cell frames (Array.append frames [| r |]))
  then push cell r

let rec free cell frames i =
  if i >= Array.length frames then begin
    let r = sized true in
    push cell r;
    r
  end
  else
    let r = Array.unsafe_get frames i in
    if (not (Atomic.get r.busy)) && Atomic.compare_and_set r.busy false true then r
    else free cell frames (i + 1)

let take () =
  let cell = Domain.DLS.get pool in
  free cell (Atomic.get cell) 0

(* Drops what the last walk referenced: the answers it asked for, its
   calls and the first failure. Only the occurrences asked are visited,
   not every occurrence numbered. *)
let clear r =
  for j = 0 to r.nasked - 1 do
    let occ = Array.unsafe_get r.asked j in
    if Array.unsafe_get r.bases occ >= 0 then Array.unsafe_set r.answers occ [];
    Array.unsafe_set r.bases occ unasked
  done;
  r.nasked <- 0;
  r.occurrences <- 0;
  for i = 0 to r.calls - 1 do
    Array.unsafe_set r.invocations i nobody
  done;
  r.calls <- 0;
  r.refused <- -1;
  if Option.is_some r.failed then r.failed <- None

let release r =
  clear r;
  if Array.length r.ids > kept then r.ids <- [||];
  if Array.length r.sets > kept then r.sets <- [||];
  if Array.length r.bases > kept then begin
    r.bases <- [||];
    r.answers <- [||]
  end;
  if Array.length r.asked > kept then r.asked <- [||];
  if Array.length r.invocations > kept then r.invocations <- [||];
  Atomic.set r.busy false

(* ------------------------------------------------------------------ *)
(* Analyses                                                            *)
(* ------------------------------------------------------------------ *)

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
      r.fill_ns <- r.fill_ns + Float.to_int ((Metrics.now Metrics.default -. t0) *. 1e9);
      v
    end

let prepare r tb kind budget =
  if r.tb != tb then r.tb <- tb;
  r.kind <- kind;
  r.budget <- Int.max 0 budget;
  r.fills <- 0;
  r.fill_ns <- 0

let reserve_ids r n =
  if Array.length r.ids < n then begin
    let ids = Array.make (capacity (Array.length r.ids) n) 0 in
    Array.blit r.ids 0 ids 0 (Array.length r.ids);
    r.ids <- ids
  end

(* The letters of [forest], in one pass. *)
let rec fill r i = function
  | [] -> r.len <- i
  | item :: rest ->
    if i >= Array.length r.ids then reserve_ids r (i + 1);
    Array.unsafe_set r.ids i (Document.sym_id item);
    fill r (i + 1) rest

(* The right-to-left pass over the frame's letters. *)
let pass r =
  let n = r.len in
  if Array.length r.sets <= n then r.sets <- Array.make (capacity (Array.length r.sets) (n + 1)) 0;
  let g = game r.tb r.kind r.budget and sets = r.sets and ids = r.ids in
  sets.(n) <- r.tb.finals;
  for i = n - 1 downto 0 do
    sets.(i) <- step r g sets.(i + 1) ids.(i)
  done

let solve r tb kind ~budget forest =
  prepare r tb kind budget;
  fill r 0 forest;
  pass r

let solve_letters r tb kind ~budget ids =
  prepare r tb kind budget;
  let n = Array.length ids in
  reserve_ids r n;
  Array.blit ids 0 r.ids 0 n;
  r.len <- n;
  pass r

let ok r = member r.tb r.sets.(0) (Dense.start r.tb.dfa)
let kind r = r.kind
let fills r = r.fills
let fill_seconds r = float_of_int r.fill_ns /. 1e9

(* Section 6: the word of one call to [a] alone, at depth [budget]:
   S_1 = finals and S_0 = Inv^budget_a(finals), since the call's own
   letter names no function of the tables and leads nowhere. *)
let every_word tb kind ~budget a =
  Mutex.protect tb.win.lock (fun () ->
      let w = fixpoint tb (game_locked tb kind budget) a (bits_of tb tb.finals) (ref 0) in
      let q = Dense.start tb.dfa in
      q >= 0 && mem w.(a.start) q)

(* ------------------------------------------------------------------ *)
(* The calls a walk made                                               *)
(* ------------------------------------------------------------------ *)

let record r inv =
  let i = r.calls in
  if i >= Array.length r.invocations then begin
    let grown = Array.make (capacity (Array.length r.invocations) (i + 1)) nobody in
    Array.blit r.invocations 0 grown 0 i;
    r.invocations <- grown
  end;
  Array.unsafe_set r.invocations i inv;
  r.calls <- i + 1

let calls r = r.calls

let call r i =
  if i < 0 || i >= r.calls then invalid_arg "Win.call: no such call";
  Array.unsafe_get r.invocations i
let refuse_last r = if r.refused < 0 then r.refused <- r.calls - 1
let refused r = r.refused
let fail r fault = if Option.is_none r.failed then r.failed <- Some fault
let failed r = r.failed

(* ------------------------------------------------------------------ *)
(* The strategy walk                                                   *)
(* ------------------------------------------------------------------ *)

(* The walk reads a children forest left to right, one (frame,
   position, DFA state) at a time. The frame is the word itself, or an
   invoked copy of an output automaton that knows where its parent
   resumes; [forks] is the depth a fork on one of its edges enters
   (none below 1). A move is taken only to a state of its position's
   winning set. The moves of an item are tried keep first, then invoke,
   in edge order, the order A_w^k gives its edges, so the walk makes
   the choices a walk over the product makes. A branch that dies
   returns [dead] and the next move is tried: backtracking is
   returning. *)
type frame =
  | Word
  | Copy of {
      fn : fn;
      wins : int array;  (* Glushkov position -> winning set *)
      forks : int;
      parent : frame;
      exit : int;  (* the parent's position after the call *)
      rest : Document.forest;  (* the parent's items after the call *)
      next : int;  (* the occurrence of [rest]'s head *)
    }
      (* an inline record: entering a copy allocates one block *)

type 'st service = {
  chosen : 'st -> string -> invoke:bool -> unit;
  call : 'st -> run -> string -> Document.forest -> Document.forest;
}

exception Unavailable
exception Dead

(* The result of a branch that died; compared physically. *)
let dead : Document.forest = [ Document.data "" ]

let wins_of r = function Word -> r.sets | Copy c -> c.wins
let forks_of r = function Word -> r.budget | Copy c -> c.forks

let reserve_answers r n =
  if Array.length r.bases < n then begin
    let cap = capacity (Array.length r.bases) n in
    let bases = Array.make cap unasked and answers = Array.make cap [] in
    Array.blit r.bases 0 bases 0 (Array.length r.bases);
    Array.blit r.answers 0 answers 0 (Array.length r.answers);
    r.bases <- bases;
    r.answers <- answers
  end

(* The base of the answer at occurrence [occ], or [out]: the service is
   asked at most once. *)
let answer r sv st occ fname item =
  let known = if occ < Array.length r.bases then Array.unsafe_get r.bases occ else unasked in
  if known <> unasked then known
  else begin
    let base =
      match sv.call st r fname (Document.children item) with
      | exception Unavailable -> out
      | items ->
        let base = r.occurrences in
        r.occurrences <- base + List.length items;
        reserve_answers r (occ + 1);
        r.answers.(occ) <- items;
        base
    in
    reserve_answers r (occ + 1);
    r.bases.(occ) <- base;
    let j = r.nasked in
    if j >= Array.length r.asked then begin
      let asked = Array.make (capacity (Array.length r.asked) (j + 1)) 0 in
      Array.blit r.asked 0 asked 0 j;
      r.asked <- asked
    end;
    Array.unsafe_set r.asked j occ;
    r.nasked <- j + 1;
    base
  end

(* The function an edge labeled [id] among [e .. last - 1] forks
   into, -1. *)
let rec fork_of_edges fn id e last =
  if e >= last then -1
  else if fn.callee.(e) >= 0 && fn.lid.(e) = id then fn.callee.(e)
  else fork_of_edges fn id (e + 1) last

(* [items r sv st frame pos s occ forest] walks [forest] from position
   [pos] of [frame] in state [s], [occ] being its head's occurrence,
   and returns what it materializes up to the end of the word, or
   [dead]. *)
let rec items r sv st frame pos s occ = function
  | [] -> finish r sv st frame pos s
  | item :: rest -> (
    match frame with
    | Word -> letter r sv st pos s item rest
    | Copy c ->
      let id = Document.sym_id item and first = c.fn.off.(pos) and last = c.fn.off.(pos + 1) in
      let fork = if c.forks >= 1 then fork_of_edges c.fn id first last else -1 in
      let out = keeps r sv st frame c.fn c.wins fork item id s occ rest first last in
      if out != dead || c.forks < 1 then out
      else forks r sv st frame c.fn item id s occ rest first last)

(* The word must end accepted; a copy must end at a final position,
   and its parent resumes. *)
and finish r sv st frame pos s =
  match frame with
  | Word -> if pos = r.len && Dense.is_final r.tb.dfa s then [] else dead
  | Copy c ->
    if c.fn.final.(pos) && member r.tb (wins_of r c.parent).(c.exit) s then
      items r sv st c.parent c.exit s c.next c.rest
    else dead

(* An item of the word itself: its occurrence is its position. *)
and letter r sv st pos s item rest =
  if pos >= r.len || Document.sym_id item <> r.ids.(pos) then dead
  else
    let id = r.ids.(pos) in
    let callee =
      let c = class_of r.tb id in
      if r.budget < 1 || c < 0 then -1 else r.tb.class_fn.(c)
    in
    let out =
      keep r sv st Word callee item r.sets.(pos + 1) (pos + 1)
        (Dense.step_id r.tb.dfa s id) (pos + 1) rest
    in
    if out != dead || callee < 0 then out else invoke r sv st Word callee (pos + 1) s pos item rest

(* Keep [item], moving to [pos'] in state [s'] if [s'] is in [set];
   [fork] is the function [item] could fork into instead, -1. *)
and keep r sv st frame fork item set pos' s' occ' rest =
  if fork >= 0 then sv.chosen st r.tb.win.fns.(fork).name ~invoke:false;
  if not (member r.tb set s') then dead
  else
    let out = items r sv st frame pos' s' occ' rest in
    if out == dead then dead else item :: out

and keeps r sv st frame fn wins fork item id s occ rest e last =
  if e >= last then dead
  else
    let out =
      if fn.lid.(e) <> id then dead
      else
        let dst = fn.dst.(e) in
        keep r sv st frame fork item wins.(dst) dst (Dense.step_id r.tb.dfa s id) (occ + 1) rest
    in
    if out != dead then out else keeps r sv st frame fn wins fork item id s occ rest (e + 1) last

and forks r sv st frame fn item id s occ rest e last =
  if e >= last then dead
  else
    let out =
      if fn.callee.(e) < 0 || fn.lid.(e) <> id then dead
      else invoke r sv st frame fn.callee.(e) fn.dst.(e) s occ item rest
    in
    if out != dead then out else forks r sv st frame fn item id s occ rest (e + 1) last

(* Invoke [item], a call to forking function [f], in state [s]: walk
   its answer through a copy of [f]'s output automaton, whose parent
   resumes at [exit]. *)
and invoke r sv st frame f exit s occ item rest =
  let tb = r.tb in
  let fn = tb.win.fns.(f) in
  sv.chosen st fn.name ~invoke:true;
  let forks = forks_of r frame in
  let wins =
    (Atomic.get tb.solved).data.(solved tb (game tb r.kind forks) f (wins_of r frame).(exit))
  in
  if not (member tb wins.(fn.start) s) then dead
  else
    let base = answer r sv st occ fn.name item in
    if base < 0 then dead
    else
      items r sv st
        (Copy { fn; wins; forks = forks - 1; parent = frame; exit; rest; next = occ + 1 })
        fn.start s base r.answers.(occ)

let walk r sv st forest =
  if r.nasked > 0 || r.calls > 0 || Option.is_some r.failed then clear r;
  r.occurrences <- r.len;
  let s = Dense.start r.tb.dfa in
  if not (member r.tb r.sets.(0) s) then raise_notrace Dead;
  let out = items r sv st Word 0 s 0 forest in
  if out == dead then raise_notrace Dead;
  out
