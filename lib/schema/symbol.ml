(* The word alphabet of the paper's model: children of a node form a word
   over labels and function names (Definition 3); atomic data values are
   abstracted by the single letter [Data], matching the keyword "data" of
   Definition 2. *)

type t =
  | Label of string
  | Fun of string
  | Data

let compare s1 s2 =
  match s1, s2 with
  | Label a, Label b -> String.compare a b
  | Fun a, Fun b -> String.compare a b
  | Data, Data -> 0
  | Label _, (Fun _ | Data) -> -1
  | Fun _, Data -> -1
  | Fun _, Label _ -> 1
  | Data, (Label _ | Fun _) -> 1

let equal s1 s2 = compare s1 s2 = 0

let pp ppf = function
  | Label l -> Fmt.string ppf l
  | Fun f -> Fmt.pf ppf "%s()" f
  | Data -> Fmt.string ppf "#data"

let to_string = Fmt.to_to_string pp
