(* A process-wide string interner: string <-> dense int, built for the
   dense automata kernel. Reads are lock-free — the (table, names)
   snapshot is immutable once published through the atomic, so [intern]
   hits and [to_string] never contend, even across domains. Inserts
   copy-on-write behind a mutex; the vocabulary (labels and function
   names of the loaded schemas) is tiny and stabilizes after the first
   few documents, so the copy cost is paid a handful of times per
   process. Every [Contract], on whatever domain, shares the global
   instance, so symbol ids agree across domains by construction. *)

module Table = Hashtbl.Make (struct
  type t = string
  let equal = String.equal
  let hash = Hashtbl.hash
end)

type snapshot = {
  ids : int Table.t;              (* frozen once published *)
  names : string array;           (* names.(i) is the string with id i *)
}

type t = {
  lock : Mutex.t;                 (* serializes inserts *)
  snap : snapshot Atomic.t;
}

let create () =
  { lock = Mutex.create ();
    snap = Atomic.make { ids = Table.create 64; names = [||] } }

let find t s = match Table.find (Atomic.get t.snap).ids s with id -> id | exception Not_found -> -1

let find_opt t s = Table.find_opt (Atomic.get t.snap).ids s

let size t = Array.length (Atomic.get t.snap).names

let intern t s =
  let id = find t s in
  if id >= 0 then id
  else
    Mutex.protect t.lock (fun () ->
        (* re-check against the latest snapshot: another domain may have
           inserted [s] between our optimistic read and the lock *)
        let cur = Atomic.get t.snap in
        match Table.find_opt cur.ids s with
        | Some id -> id
        | None ->
          let id = Array.length cur.names in
          let ids = Table.copy cur.ids in
          Table.add ids s id;
          let names = Array.make (id + 1) s in
          Array.blit cur.names 0 names 0 id;
          Atomic.set t.snap { ids; names };
          id)

let to_string t id =
  let names = (Atomic.get t.snap).names in
  if id < 0 || id >= Array.length names then
    invalid_arg (Printf.sprintf "Interner.to_string: unknown id %d" id);
  names.(id)

(* The default process-wide instance the schema layer codes symbols
   through. *)
let global = create ()
