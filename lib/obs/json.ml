(* The JSON printer: one escaper, one float rule, two layouts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* [indent = None] is the one-line layout; [Some n] is the pretty
   layout at nesting depth [n]. *)
let rec add buf indent v =
  let seq opening closing items add_item =
    match items with
    | [] -> Buffer.add_char buf opening; Buffer.add_char buf closing
    | items ->
      let inner = Option.map succ indent in
      let break depth =
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
      in
      Buffer.add_char buf opening;
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf (if indent = None then ", " else ",");
          Option.iter break inner;
          add_item inner item)
        items;
      Option.iter break indent;
      Buffer.add_char buf closing
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_string buf s
  | List vs -> seq '[' ']' vs (fun inner v -> add buf inner v)
  | Obj members ->
    seq '{' '}' members (fun inner (k, v) ->
        add_string buf k;
        Buffer.add_string buf ": ";
        add buf inner v)

let render indent v =
  let buf = Buffer.create 256 in
  add buf indent v;
  Buffer.contents buf

let to_string v = render None v
let to_string_pretty v = render (Some 0) v

let to_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string_pretty v);
      output_char oc '\n')

let opt key f = function Some x -> [ (key, f x) ] | None -> []
