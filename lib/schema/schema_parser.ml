(* A compact textual syntax for schemas, mirroring the paper's notation:

     root newspaper
     element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit* )
     element title = #data
     function Get_Temp : city -> temp
     noninvocable function TimeOut : #data -> (exhibit | performance)*
     pattern Forecast requires UDDIF InACL : city -> temp

   Lines starting with '#' (after trimming) and blank lines are ignored.
   Names used in content models resolve to functions or patterns when
   declared as such anywhere in the file, otherwise to element labels.
   The XML-syntax schemas of Section 7 are handled separately by the
   Active XML layer (Xml_schema_int).

   The parser tracks source positions: every declaration remembers the
   1-based column of its name and of each regular-expression body, so
   parse errors point at line AND column (offsets inside a regex body
   are translated back to columns of the original line) and the
   diagnostics layer can attach file:line:col locations to the names it
   reports on ([parse_with_positions]). *)

exception Parse_error of { line : int; col : int; message : string }

let fail ?(col = 1) line message = raise (Parse_error { line; col; message })

type pos = { line : int; col : int }

(* Raw declarations; [*_col] fields are 1-based columns in the source
   line (name of the declaration, start of each regex text). *)
type raw_decl =
  | D_root of { name : string; name_col : int }
  | D_element of { name : string; name_col : int; body : string; body_col : int }
  | D_function of
      { name : string; name_col : int;
        input : string; input_col : int;
        output : string; output_col : int;
        invocable : bool }
  | D_pattern of
      { name : string; name_col : int; predicates : string list;
        input : string; input_col : int;
        output : string; output_col : int;
        invocable : bool }

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let is_ws c = c = ' ' || c = '\t' || c = '\r'

let skip_ws s i =
  let n = String.length s in
  let rec go i = if i < n && is_ws s.[i] then go (i + 1) else i in
  go i

let word_end s i =
  let n = String.length s in
  let rec go i = if i < n && not (is_ws s.[i]) then go (i + 1) else i in
  go i

(* Trimmed substring of s[a..b) together with the index its text starts
   at (equals [b] when the slice is all whitespace). *)
let trimmed_sub s a b =
  let a = skip_ws s a in
  let rec back b = if b > a && is_ws s.[b - 1] then back (b - 1) else b in
  let b = back b in
  (String.sub s a (b - a), a)

(* First occurrence of "->" at or after [start]. *)
let find_arrow lineno line start =
  let n = String.length line in
  let rec go i =
    if i + 1 >= n then fail ~col:(n + 1) lineno "expected '->' in signature"
    else if line.[i] = '-' && line.[i + 1] = '>' then i
    else go (i + 1)
  in
  go start

let parse_decl lineno line : raw_decl option =
  let n = String.length line in
  let col i = i + 1 in
  let i0 = skip_ws line 0 in
  if i0 >= n || line.[i0] = '#' then None
  else begin
    let w1_end = word_end line i0 in
    let invocable, kw_start =
      if String.sub line i0 (w1_end - i0) = "noninvocable" then
        (false, skip_ws line w1_end)
      else (true, i0)
    in
    let kw_end = word_end line kw_start in
    let kw = String.sub line kw_start (kw_end - kw_start) in
    let signature_parts after_colon =
      let arrow = find_arrow lineno line after_colon in
      let input, input_i = trimmed_sub line after_colon arrow in
      let output, output_i = trimmed_sub line (arrow + 2) n in
      (input, col input_i, output, col output_i)
    in
    match kw with
    | "" -> None
    | "root" ->
      let rest, rest_i = trimmed_sub line kw_end n in
      (match split_words rest with
       | [ name ] -> Some (D_root { name; name_col = col rest_i })
       | _ -> fail ~col:(col kw_start) lineno "root takes exactly one name")
    | "element" ->
      (match String.index_from_opt line kw_end '=' with
       | None -> fail ~col:(col kw_start) lineno "element declaration needs '='"
       | Some eq ->
         let name, name_i = trimmed_sub line kw_end eq in
         let body, body_i = trimmed_sub line (eq + 1) n in
         if name = "" then
           fail ~col:(col kw_start) lineno "element declaration needs a name";
         Some (D_element { name; name_col = col name_i; body; body_col = col body_i }))
    | "function" ->
      (match String.index_from_opt line kw_end ':' with
       | None ->
         fail ~col:(col kw_start) lineno "expected ':' before the signature"
       | Some c ->
         let name, name_i = trimmed_sub line kw_end c in
         let input, input_col, output, output_col = signature_parts (c + 1) in
         if name = "" then
           fail ~col:(col kw_start) lineno "function declaration needs a name";
         Some (D_function { name; name_col = col name_i; input; input_col;
                            output; output_col; invocable }))
    | "pattern" ->
      (match String.index_from_opt line kw_end ':' with
       | None ->
         fail ~col:(col kw_start) lineno "expected ':' before the signature"
       | Some c ->
         let head, head_i = trimmed_sub line kw_end c in
         let input, input_col, output, output_col = signature_parts (c + 1) in
         let name, predicates =
           match split_words head with
           | name :: "requires" :: preds when preds <> [] -> (name, preds)
           | [ name ] -> (name, [])
           | _ ->
             fail ~col:(col kw_start) lineno
               "malformed pattern head (use: pattern NAME [requires P..] : IN -> OUT)"
         in
         Some (D_pattern { name; name_col = col head_i; predicates;
                           input; input_col; output; output_col; invocable }))
    | word -> fail ~col:(col kw_start) lineno (Fmt.str "unknown declaration %S" word)
  end

(* A declared label, function or pattern name must be one an XML
   document can carry as an element name or a [methodName]:
   [A-Za-z_][A-Za-z0-9_-]*. *)
let is_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       s

let name_grammar = "[A-Za-z_][A-Za-z0-9_-]*"

let check_name lineno col what name =
  if not (is_name name) then
    fail ~col lineno (Fmt.str "%s name %S is not of the form %s" what name name_grammar)

(* Once the regex parser has accepted [text], every maximal run of
   bytes other than whitespace and the operators ().|*+? in it is one
   identifier: each must be a name or one of the three wildcards. *)
let check_identifiers lineno col text =
  let is_separator = function
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '|' | '.' | '*' | '+' | '?' -> true
    | _ -> false
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_separator text.[!i] then incr i
    else begin
      let start = !i in
      while !i < n && not (is_separator text.[!i]) do incr i done;
      let id = String.sub text start (!i - start) in
      if not (is_name id || List.mem id [ "#data"; "#any"; "#anyfun" ]) then
        fail ~col:(col + start) lineno
          (Fmt.str "%S is neither a name (%s) nor #data, #any or #anyfun" id
             name_grammar)
    end
  done

(* Offsets reported by the regex parser are relative to the body text,
   which starts at [col] of its line: translate them back. *)
let parse_regex lineno col text =
  match Axml_regex.Regex_parser.parse text with
  | r ->
    check_identifiers lineno col text;
    r
  | exception Axml_regex.Regex_parser.Error { pos; message } ->
    fail ~col:(col + pos) lineno (Fmt.str "bad regular expression: %s" message)

(* [parse_with_positions input] parses a whole schema file, also
   returning where each declaration's name sits in the source. *)
let parse_with_positions input : Schema.t * pos Schema.String_map.t =
  let lines = String.split_on_char '\n' input in
  let decls =
    List.concat
      (List.mapi
         (fun i line ->
           match parse_decl (i + 1) line with
           | Some d -> [ (i + 1, d) ]
           | None -> [])
         lines)
  in
  (* Pass 1: which names are functions / patterns? *)
  let functions, patterns =
    List.fold_left
      (fun (fs, ps) (_, d) ->
        match d with
        | D_function { name; _ } -> (Schema.String_set.add name fs, ps)
        | D_pattern { name; _ } -> (fs, Schema.String_set.add name ps)
        | D_root _ | D_element _ -> (fs, ps))
      (Schema.String_set.empty, Schema.String_set.empty)
      decls
  in
  let resolve lineno col text =
    Schema.resolve_content ~functions ~patterns (parse_regex lineno col text)
  in
  (* Pass 2: build the schema and the source map. *)
  let schema, positions =
    List.fold_left
      (fun (s, posmap) (lineno, d) ->
        let declare what name name_col build =
          check_name lineno name_col what name;
          let posmap =
            if Schema.String_map.mem name posmap then posmap
            else Schema.String_map.add name { line = lineno; col = name_col } posmap
          in
          try (build (), posmap)
          with Schema.Schema_error e ->
            fail ~col:name_col lineno (Fmt.str "%a" Schema.pp_error e)
        in
        match d with
        | D_root { name; name_col } ->
          check_name lineno name_col "root" name;
          (try (Schema.with_root s name, posmap)
           with Schema.Schema_error e ->
             fail ~col:name_col lineno (Fmt.str "%a" Schema.pp_error e))
        | D_element { name; name_col; body; body_col } ->
          declare "element" name name_col (fun () ->
              Schema.add_element s name (resolve lineno body_col body))
        | D_function { name; name_col; input; input_col; output; output_col;
                       invocable } ->
          declare "function" name name_col (fun () ->
              Schema.add_function s
                (Schema.func ~invocable name
                   ~input:(resolve lineno input_col input)
                   ~output:(resolve lineno output_col output)))
        | D_pattern { name; name_col; predicates; input; input_col;
                      output; output_col; invocable } ->
          declare "pattern" name name_col (fun () ->
              Schema.add_pattern s
                (Schema.pattern ~invocable ~predicates name
                   ~input:(resolve lineno input_col input)
                   ~output:(resolve lineno output_col output))))
      (Schema.empty, Schema.String_map.empty) decls
  in
  (try Schema.check schema
   with Schema.Schema_error e -> fail 0 ~col:0 (Fmt.str "%a" Schema.pp_error e));
  (schema, positions)

let parse input = fst (parse_with_positions input)

let parse_result input =
  match parse input with
  | s -> Ok s
  | exception Parse_error { line; col; message } ->
    if line = 0 then Result.error (Fmt.str "schema: %s" message)
    else Result.error (Fmt.str "line %d, col %d: %s" line col message)
