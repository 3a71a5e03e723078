type severity = Error | Warning | Hint

let severity_rank = function Error -> 2 | Warning -> 1 | Hint -> 0

let pp_severity ppf s =
  Fmt.string ppf
    (match s with Error -> "error" | Warning -> "warning" | Hint -> "hint")

let severity_geq a b = severity_rank a >= severity_rank b

type subject =
  | Element of string
  | Function of string
  | Pattern of string
  | Root
  | Schema_pair of string
  | Node of int list

let pp_subject ppf = function
  | Element l -> Fmt.pf ppf "element '%s'" l
  | Function f -> Fmt.pf ppf "function '%s'" f
  | Pattern p -> Fmt.pf ppf "pattern '%s'" p
  | Root -> Fmt.string ppf "root"
  | Schema_pair l -> Fmt.pf ppf "exchange of '%s'" l
  | Node path ->
    Fmt.pf ppf "node /%a" Fmt.(list ~sep:(any "/") int) path

type pos = { line : int; col : int }

type location = {
  file : string option;
  pos : pos option;
  subject : subject;
}

let at ?file ?pos subject = { file; pos; subject }

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
  hint : string option;
}

let make ?file ?pos ?hint ~code ~severity subject message =
  { code; severity; loc = at ?file ?pos subject; message; hint }

let subject_key = function
  | Element l -> (0, l, [])
  | Function f -> (1, f, [])
  | Pattern p -> (2, p, [])
  | Root -> (3, "", [])
  | Schema_pair l -> (4, l, [])
  | Node path -> (5, "", path)

let compare a b =
  let file l = Option.value l.file ~default:"" in
  let posn l = match l.pos with Some p -> (p.line, p.col) | None -> (0, 0) in
  Stdlib.compare
    (file a.loc, posn a.loc, a.code, subject_key a.loc.subject, a.message)
    (file b.loc, posn b.loc, b.code, subject_key b.loc.subject, b.message)

let count sev ds =
  List.length (List.filter (fun d -> d.severity = sev) ds)

let max_severity = function
  | [] -> None
  | ds ->
    Some
      (List.fold_left
         (fun acc d -> if severity_geq d.severity acc then d.severity else acc)
         Hint ds)

let exceeds ~deny ds = List.exists (fun d -> severity_geq d.severity deny) ds

let pp ppf d =
  let place ppf loc =
    match (loc.file, loc.pos) with
    | Some f, Some p -> Fmt.pf ppf "%s:%d:%d " f p.line p.col
    | Some f, None -> Fmt.pf ppf "%s: " f
    | None, Some p -> Fmt.pf ppf "%d:%d " p.line p.col
    | None, None -> ()
  in
  Fmt.pf ppf "%a[%s] %a%a: %s" pp_severity d.severity d.code place d.loc
    pp_subject d.loc.subject d.message;
  match d.hint with
  | Some h -> Fmt.pf ppf "@,  hint: %s" h
  | None -> ()

module Json = Axml_obs.Json

let subject_json subject =
  let named kind key name = Json.Obj [ ("kind", Json.String kind); (key, Json.String name) ] in
  match subject with
  | Element l -> named "element" "name" l
  | Function f -> named "function" "name" f
  | Pattern p -> named "pattern" "name" p
  | Root -> Json.Obj [ ("kind", Json.String "root") ]
  | Schema_pair l -> named "exchange" "label" l
  | Node path ->
    Json.Obj
      [ ("kind", Json.String "node");
        ("path", Json.List (List.map (fun i -> Json.Int i) path)) ]

let to_json d =
  Json.Obj
    ([ ("code", Json.String d.code);
       ("severity", Json.String (Fmt.str "%a" pp_severity d.severity));
       ("subject", subject_json d.loc.subject) ]
    @ Json.opt "file" (fun f -> Json.String f) d.loc.file
    @ (match d.loc.pos with
       | Some p -> [ ("line", Json.Int p.line); ("col", Json.Int p.col) ]
       | None -> [])
    @ [ ("message", Json.String d.message) ]
    @ Json.opt "hint" (fun h -> Json.String h) d.hint)

let report_fields ds =
  [ ("diagnostics", Json.List (List.map to_json (List.sort compare ds)));
    ( "summary",
      Json.Obj
        [ ("errors", Json.Int (count Error ds));
          ("warnings", Json.Int (count Warning ds));
          ("hints", Json.Int (count Hint ds)) ] ) ]

let report_to_json ds = Json.Obj (report_fields ds)

let rules =
  [
    ("AXM000", Error, "usage or input error (bad file, unparsable schema or document)");
    ("AXM001", Error, "content model or signature is the empty language");
    ("AXM002", Warning, "content model is not 1-unambiguous");
    ("AXM003", Warning, "alternative branch is subsumed by earlier branches");
    ("AXM010", Warning, "element is unreachable from the root");
    ("AXM011", Error, "element admits no finite document (cyclic without base case)");
    ("AXM012", Warning, "function or pattern is declared but never referenced");
    ("AXM014", Hint, "schema declares no root");
    ("AXM020", Error, "sender document type has no safe left-to-right rewriting strategy here");
    ("AXM021", Error, "function can never be safely rewritten in any context it occurs in");
    ("AXM022", Hint, "function is absent from the target schema and must always materialize");
    ("AXM023", Warning, "invocable function never occurs in a sender document");
    ("AXM030", Error, "call to a function the contract does not declare");
    ("AXM031", Error, "call can never contribute to a valid exchanged document");
    ( "AXM032",
      Warning,
      "declared output can embed invocable calls deeper than the configured \
       rewriting depth k" );
    ("AXM033", Error, "document failed enforcement (rejected or faulted)");
    ( "AXM040",
      Warning,
      "schema evolution narrowed (or removed) a label's content model" );
    ( "AXM041",
      Warning,
      "schema evolution regressed a label's left-to-right (no look-ahead) verdict" );
    ("AXM042", Error, "archived document cannot migrate to the new schema");
    ( "AXM043",
      Warning,
      "widened content model silently accepts previously-refused calls" );
    ( "AXM044",
      Warning,
      "schema evolution changed a function's signature or invocability" );
  ]
