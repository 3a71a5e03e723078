(* A minimal JSON value with a printer and a reader: enough for the
   ledger's result files and for the @ci gate, which reads the committed
   baseline back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Numbers keep every digit: results are compared across runs, and
   rounding here would hide run-to-run variation. *)
let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let to_buffer ?(indent = -1) b v =
  let nl depth =
    if indent >= 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num x -> Buffer.add_string b (num_to_string x)
    | Str s -> Buffer.add_string b (escape s)
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b (if indent >= 0 then "," else ", ");
          nl (depth + 1);
          go (depth + 1) x)
        items;
      nl depth;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b (if indent >= 0 then "," else ", ");
          nl (depth + 1);
          Buffer.add_string b (escape k);
          Buffer.add_string b ": ";
          go (depth + 1) x)
        fields;
      nl depth;
      Buffer.add_char b '}'
  in
  go 0 v

let to_string ?indent v =
  let b = Buffer.create 256 in
  to_buffer ?indent b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "short \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest -> Option.bind (member k v) (path rest)

let to_float = function Num x -> Some x | _ -> None
