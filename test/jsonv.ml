(* An independent JSON reader, shared by the test executables: every
   exported JSON text (metrics dumps, batch envelopes and stats, trace
   events, lint and evolution reports, soak reports) is parsed back with
   it and asserted on as a value, never by substring.

   It follows RFC 8259 strictly: a number is an optional minus, then 0
   or a digit string without a leading zero, then an optional fraction
   and exponent that each need digits (so 01, 1., .5, +1, nan and inf
   are rejected), strings may not contain raw control
   characters, \u escapes decode to UTF-8 (surrogate pairs combined),
   and exactly one top-level value is accepted. String bytes at or above
   0x80 are kept verbatim: the reader does not validate UTF-8, so that
   any OCaml string survives a print/parse round trip. It shares no code
   with the printer it checks (Axml_obs.Json), only the value type. *)

module Json = Axml_obs.Json

exception Bad of string * int

let parse (s : string) : Json.t =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  let advance () = incr i in
  let error msg = raise (Bad (msg, !i)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal w v =
    let l = String.length w in
    if !i + l <= n && String.sub s !i l = w then (i := !i + l; v)
    else error ("expected " ^ w)
  in
  let digits () =
    let start = !i in
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if !i = start then error "digit expected"
  in
  let hex4 () =
    if !i + 4 > n then error "bad \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> error "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        let c = peek () in
        advance ();
        (match c with
         | Some '"' -> Buffer.add_char buf '"'
         | Some '\\' -> Buffer.add_char buf '\\'
         | Some '/' -> Buffer.add_char buf '/'
         | Some 'b' -> Buffer.add_char buf '\b'
         | Some 'f' -> Buffer.add_char buf '\012'
         | Some 'n' -> Buffer.add_char buf '\n'
         | Some 'r' -> Buffer.add_char buf '\r'
         | Some 't' -> Buffer.add_char buf '\t'
         | Some 'u' ->
           let hi = hex4 () in
           let code =
             if hi >= 0xD800 && hi <= 0xDBFF then begin
               if !i + 2 <= n && s.[!i] = '\\' && s.[!i + 1] = 'u' then begin
                 i := !i + 2;
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then error "bad low surrogate";
                 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else error "lone high surrogate"
             end
             else if hi >= 0xDC00 && hi <= 0xDFFF then error "lone low surrogate"
             else hi
           in
           Buffer.add_utf_8_uchar buf (Uchar.of_int code)
         | _ -> error "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> error "raw control character"
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Json.String (string_lit ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | _ -> error "value expected"
  and number () =
    let start = !i in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
     | Some '0' -> advance ()
     | Some '1' .. '9' -> digits ()
     | _ -> error "digit expected");
    let integral = ref true in
    (match peek () with
     | Some '.' -> integral := false; advance (); digits ()
     | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       integral := false;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let lit = String.sub s start (!i - start) in
    match (if !integral then int_of_string_opt lit else None) with
    | Some k -> Json.Int k
    | None -> Json.Float (float_of_string lit)
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' -> advance (); Json.Obj []
    | _ ->
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ((k, v) :: acc)
        | Some '}' -> advance (); Json.Obj (List.rev ((k, v) :: acc))
        | _ -> error "',' or '}' expected"
      in
      members []
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' -> advance (); Json.List []
    | _ ->
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elems (v :: acc)
        | Some ']' -> advance (); Json.List (List.rev (v :: acc))
        | _ -> error "',' or ']' expected"
      in
      elems []
  in
  let v = value () in
  skip_ws ();
  if !i <> n then error "trailing garbage";
  v

let explain s =
  match parse s with
  | _ -> None
  | exception Bad (msg, pos) -> Some (Printf.sprintf "%s at offset %d" msg pos)

let is_valid s = explain s = None

(* [parse], failing the running test with [label] on a syntax error. *)
let parse_exn label s =
  match parse s with
  | v -> v
  | exception Bad (msg, pos) ->
    Alcotest.failf "%s: not valid JSON: %s at offset %d\n%s" label msg pos s

(* Structural equality in which an integer literal equals the float of
   the same value: the printer writes an integral float without a
   fraction, so it reads back as [Int]. *)
let rec equal (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x ->
    Float.equal (float_of_int x) y
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.List xs, Json.List ys -> List.equal equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && equal x y) xs ys
  | _ -> a = b

(* The value at [path]: object keys, or decimal indices into arrays. *)
let rec at path (v : Json.t) =
  match (path, v) with
  | [], v -> Some v
  | k :: rest, Json.Obj ms -> Option.bind (List.assoc_opt k ms) (at rest)
  | k :: rest, Json.List vs ->
    (match int_of_string_opt k with
     | Some j when j >= 0 -> Option.bind (List.nth_opt vs j) (at rest)
     | _ -> None)
  | _ :: _, _ -> None

(* The elements of the array at [path] ([] when there is none). *)
let elements path v = match at path v with Some (Json.List vs) -> vs | _ -> []

(* Does some element of the array at [path] hold [expected] at [sub]? *)
let exists path sub expected v =
  List.exists
    (fun e -> match at sub e with Some x -> equal x expected | None -> false)
    (elements path v)

let pp ppf v = Format.pp_print_string ppf (Json.to_string v)
let testable = Alcotest.testable pp equal

(* Assert that [v] holds [expected] at [path]. *)
let check_at label v path expected =
  Alcotest.check (Alcotest.option testable) label (Some expected) (at path v)
