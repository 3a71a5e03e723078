(* Dense integer codes for schema symbols, backed by the process-wide
   string interner. The coding is positional so it never collides and
   needs no per-symbol table:

     Data      -> 0
     Label l   -> 2 * intern l + 1
     Fun f     -> 2 * intern f + 2

   Every id is >= 0, ids are stable for the process lifetime, and the
   same label/function name gets the same id in every domain (the
   interner is shared), which is what lets dense DFA tables compiled in
   one domain be stepped from another. *)

module I = Axml_regex.Interner

let interner = I.global

let data = 0
let of_label l = (2 * I.intern interner l) + 1
let of_fun f = (2 * I.intern interner f) + 2

let of_symbol = function
  | Symbol.Data -> 0
  | Symbol.Label l -> of_label l
  | Symbol.Fun f -> of_fun f

let to_symbol id =
  if id = 0 then Symbol.Data
  else begin
    let s = I.to_string interner ((id - 1) / 2) in
    if id land 1 = 1 then Symbol.Label s else Symbol.Fun s
  end

let of_word w = Array.of_list (List.map of_symbol w)
