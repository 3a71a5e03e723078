(* Entry [Char.code c] of [table] is the set of classes byte [c] belongs
   to, one bit per class. The table is built once, from the definitions
   in [classes]; a scanning loop then asks about a byte with one load and
   one mask. *)

let space = 1
let name_start = 2
let name_char = 4
let text_stop = 8
let text_escape = 16
let attr_escape = 32

let classes c =
  let bit cls yes = if yes then cls else 0 in
  bit space (match c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  lor bit name_start
        (match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  lor bit name_char
        (match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' | '0' .. '9' | '-' | '.' -> true
         | _ -> false)
  lor bit text_stop (match c with '<' | '&' | '\r' -> true | _ -> false)
  lor bit text_escape
        (match c with
         | '\t' | '\n' -> false
         | '&' | '<' | '>' | '\000' .. '\031' -> true
         | _ -> false)
  lor bit attr_escape
        (match c with '&' | '<' | '"' | '\000' .. '\031' -> true | _ -> false)

let table = String.init 256 (fun i -> Char.chr (classes (Char.chr i)))

let[@inline] is cls c = Char.code (String.unsafe_get table (Char.code c)) land cls <> 0
