(* A process-wide string interner: string <-> dense int, built for the
   dense automata kernel. Reads are lock-free — the (slots, names)
   snapshot is immutable once published through the atomic, so [find],
   [intern] hits and [to_string] never contend, even across domains.
   Inserts copy-on-write behind a mutex; the vocabulary (labels and
   function names of the loaded schemas) is tiny and stabilizes after
   the first few documents, so the copy cost is paid a handful of times
   per process. Every [Contract], on whatever domain, shares the global
   instance, so symbol ids agree across domains by construction.

   The ids are found through an open-addressed table: [slots] has a
   power-of-two length, at least twice the number of names, and holds
   at each name's first free slot from [hash name] on (linear probing)
   its id, -1 elsewhere. Every decoded element and call looks its name
   up here, so [find] hashes with the byte loop below rather than the
   generic [Hashtbl.hash], and a miss is -1 rather than an exception. *)

type snapshot = {
  slots : int array;              (* frozen once published *)
  names : string array;           (* names.(i) is the string with id i *)
}

type t = {
  lock : Mutex.t;                 (* serializes inserts *)
  snap : snapshot Atomic.t;
}

let create () =
  { lock = Mutex.create (); snap = Atomic.make { slots = Array.make 16 (-1); names = [||] } }

(* A polynomial hash of [s.[off .. off + len - 1]], then a multiply-xor
   finish so that the low bits the table masks depend on every byte. *)
let hash_sub s off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  let h = (!h lxor (!h lsr 29)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let hash s = hash_sub s 0 (String.length s)

(* Is [name] the slice [s.[off .. off + len - 1]]? *)
let is_slice name s off len =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (off + !i) do incr i done;
  !i = len

(* The id of the slice [s.[off .. off + len - 1]] in [slots]/[names]
   from slot [i] on, -1 at the first free slot. *)
let rec probe slots names mask s off len i =
  let id = Array.unsafe_get slots i in
  if id < 0 then -1
  else if is_slice (Array.unsafe_get names id) s off len then id
  else probe slots names mask s off len ((i + 1) land mask)

let lookup { slots; names } s off len =
  let mask = Array.length slots - 1 in
  probe slots names mask s off len (hash_sub s off len land mask)

let find_sub t s off len = lookup (Atomic.get t.snap) s off len
let find t s = find_sub t s 0 (String.length s)

let size t = Array.length (Atomic.get t.snap).names

(* Put [id] at [names.(id)]'s first free slot. *)
let place slots names id =
  let mask = Array.length slots - 1 in
  let i = ref (hash names.(id) land mask) in
  while slots.(!i) >= 0 do i := (!i + 1) land mask done;
  slots.(!i) <- id

let intern t s =
  let id = find t s in
  if id >= 0 then id
  else
    Mutex.protect t.lock (fun () ->
        (* re-check against the latest snapshot: another domain may have
           inserted [s] between our optimistic read and the lock *)
        let cur = Atomic.get t.snap in
        let id = lookup cur s 0 (String.length s) in
        if id >= 0 then id
        else begin
          let id = Array.length cur.names in
          let names = Array.make (id + 1) s in
          Array.blit cur.names 0 names 0 id;
          let capacity = Array.length cur.slots in
          let slots =
            if 2 * (id + 1) <= capacity then Array.copy cur.slots
            else begin
              let slots = Array.make (2 * capacity) (-1) in
              for old = 0 to id - 1 do place slots names old done;
              slots
            end
          in
          place slots names id;
          Atomic.set t.snap { slots; names };
          id
        end)

let to_string t id =
  let names = (Atomic.get t.snap).names in
  if id < 0 || id >= Array.length names then
    invalid_arg (Printf.sprintf "Interner.to_string: unknown id %d" id);
  names.(id)

(* The default process-wide instance the schema layer codes symbols
   through. *)
let global = create ()
