(* Dense integer codes for schema symbols, backed by the process-wide
   string interner. The coding is positional so it never collides and
   needs no per-symbol table:

     Data      -> 0
     Label l   -> 2 * intern l + 1
     Fun f     -> 2 * intern f + 2

   Every id is >= 0, ids are stable for the process lifetime, and the
   same label/function name gets the same id in every domain (the
   interner is shared), which is what lets dense DFA tables compiled in
   one domain be stepped from another.

   Only schema compilation interns ([of_label], [of_fun], [of_symbol]).
   A document's letters are coded by lookup ([find_*]): a name no
   schema declared gets -1, which every dense table steps to reject, so
   judging a document never grows the interner. *)

module I = Axml_regex.Interner

let interner = I.global

let data = 0
let of_label l = (2 * I.intern interner l) + 1
let of_fun f = (2 * I.intern interner f) + 2

let of_symbol = function
  | Symbol.Data -> 0
  | Symbol.Label l -> of_label l
  | Symbol.Fun f -> of_fun f

let code ~tag i = if i < 0 then -1 else (2 * i) + tag
let find_label l = code ~tag:1 (I.find interner l)
let find_fun f = code ~tag:2 (I.find interner f)
let find_label_sub s off len = code ~tag:1 (I.find_sub interner s off len)
let find_fun_sub s off len = code ~tag:2 (I.find_sub interner s off len)

(* Both tags drop out of [(id - 1) / 2]: 2i + 1 and 2i + 2 give i. *)
let name id = I.to_string interner ((id - 1) / 2)

let find_symbol = function
  | Symbol.Data -> 0
  | Symbol.Label l -> find_label l
  | Symbol.Fun f -> find_fun f

let of_word w = Array.of_list (List.map of_symbol w)
