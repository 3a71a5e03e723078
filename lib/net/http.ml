(* Minimal HTTP/1.1: exactly what the server's /metrics and /exchange
   routes need. *)

exception Http_error of { status : int; reason : string }

let fail ?(status = 400) fmt =
  Fmt.kstr (fun reason -> raise (Http_error { status; reason })) fmt

let max_line_bytes = 8192
let max_headers = 100

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let status_text = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 503 -> "Service Unavailable"
  | _ -> "Internal Server Error"

(* Read one CRLF- (or bare-LF-) terminated line into [buf], without
   the ending: [None] on EOF before any byte, the bytes so far on EOF
   mid-line. A line longer than [max_line_bytes] is refused as soon as
   its bytes pass the cap, so it never costs more than the cap. *)
let read_line_opt buf ic =
  Buffer.clear buf;
  let line () =
    let n = Buffer.length buf in
    Some (Buffer.sub buf 0 (if n > 0 && Buffer.nth buf (n - 1) = '\r' then n - 1 else n))
  in
  let rec go () =
    match input_char ic with
    | '\n' -> line ()
    | c ->
      if Buffer.length buf >= max_line_bytes then
        fail ~status:431 "request line or header over %d bytes" max_line_bytes;
      Buffer.add_char buf c;
      go ()
    | exception End_of_file -> if Buffer.length buf = 0 then None else line ()
  in
  go ()

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let read_request ic =
  let buf = Buffer.create 256 in
  match read_line_opt buf ic with
  | None -> None
  | Some request_line ->
    let meth, path =
      match String.split_on_char ' ' request_line with
      | [ meth; target; version ]
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
        (String.uppercase_ascii meth, target)
      | _ -> fail "malformed request line %S" request_line
    in
    let rec headers count acc =
      match read_line_opt buf ic with
      | None -> fail "EOF in headers"
      | Some "" -> List.rev acc
      | Some _ when count = max_headers ->
        fail ~status:431 "more than %d headers" max_headers
      | Some line ->
        (match String.index_opt line ':' with
         | None -> fail "malformed header %S" line
         | Some i ->
           let name = String.lowercase_ascii (String.sub line 0 i) in
           let value =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           headers (count + 1) ((name, value) :: acc))
    in
    let headers = headers 0 [] in
    let body =
      match List.assoc_opt "content-length" headers with
      | None -> ""
      | Some l ->
        (* decimal digits only: [int_of_string] would also read
           [0x10], [1_000], [+5] and [0u12] *)
        let digits = String.trim l in
        (match
           if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
           then int_of_string_opt digits
           else None
         with
         | None -> fail "malformed Content-Length %S" l
         | Some n when n > Wire.max_frame_bytes ->
           fail ~status:413 "body of %d bytes exceeds the %d limit" n
             Wire.max_frame_bytes
         | Some n ->
           let body = Wire.read_bytes ic n in
           if String.length body < n then
             fail "EOF in body (%d of %d bytes)" (String.length body) n;
           body)
    in
    Some { meth; path; headers; body }

let write_response oc ~status ?(content_type = "text/plain; charset=utf-8") body =
  Printf.fprintf oc "HTTP/1.1 %d %s\r\n" status (status_text status);
  Printf.fprintf oc "Content-Type: %s\r\n" content_type;
  Printf.fprintf oc "Content-Length: %d\r\n" (String.length body);
  output_string oc "Connection: close\r\n\r\n";
  output_string oc body;
  flush oc
