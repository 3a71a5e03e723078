(* The Active XML wire protocol: typed requests/responses, a binary
   codec, and length-prefixed framing.

   The codec is deliberately boring: tag byte, big-endian u32 lengths
   and counts, raw bytes for strings. XML payloads (documents, schemas,
   envelopes) ride inside string fields in their existing wire syntax,
   so the only invariants here are structural and [decode ∘ encode] is
   exactly the identity. *)

exception Wire_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Wire_error m)) fmt

(* Version 2: Open_exchange / Exchange_opened carry the rewriting depth
   k, so sender and receiver provably agree on the enforcement bound
   before any document flows. *)
let protocol_version = 2

type metrics_format = Prometheus | Json

type request =
  | Ping
  | Open_exchange of { schema_xml : string; k : int }
  | Exchange of { exchange : int; as_name : string; doc_xml : string }
  | Invoke of { envelope : string }
  | Get_wsdl of { service : string }
  | List_services
  | List_documents
  | Get_document of { name : string }
  | Lint_exchange of { schema_xml : string }
  | Get_metrics of { format : metrics_format }

type refusal = { at : Axml_core.Document.path; context : string }

type response =
  | Pong of { peer : string; protocol : int }
  | Exchange_opened of { id : int; k : int }
  | Accepted of { as_name : string; wire_bytes : int }
  | Refused of { refusals : refusal list }
  | Envelope of { envelope : string }
  | Wsdl of { wsdl : string }
  | Names of { names : string list }
  | Document of { doc_xml : string }
  | Report of { json : string }
  | Metrics of { format : metrics_format; body : string }
  | Error of { code : string; reason : string }

let request_op = function
  | Ping -> "ping"
  | Open_exchange _ -> "open-exchange"
  | Exchange _ -> "exchange"
  | Invoke _ -> "invoke"
  | Get_wsdl _ -> "wsdl"
  | List_services -> "list-services"
  | List_documents -> "list-documents"
  | Get_document _ -> "get-document"
  | Lint_exchange _ -> "lint"
  | Get_metrics _ -> "metrics"

let response_op = function
  | Pong _ -> "pong"
  | Exchange_opened _ -> "exchange-opened"
  | Accepted _ -> "accepted"
  | Refused _ -> "refused"
  | Envelope _ -> "envelope"
  | Wsdl _ -> "wsdl"
  | Names _ -> "names"
  | Document _ -> "document"
  | Report _ -> "report"
  | Metrics _ -> "metrics"
  | Error _ -> "error"

let pp_request ppf r =
  match r with
  | Open_exchange { schema_xml = _; k } -> Fmt.pf ppf "open-exchange (k=%d)" k
  | Exchange { exchange; as_name; doc_xml } ->
    Fmt.pf ppf "exchange[%d] as %S (%d bytes)" exchange as_name
      (String.length doc_xml)
  | Get_wsdl { service } -> Fmt.pf ppf "wsdl %s" service
  | Get_document { name } -> Fmt.pf ppf "get-document %S" name
  | r -> Fmt.string ppf (request_op r)

let pp_response ppf r =
  match r with
  | Error { code; reason } -> Fmt.pf ppf "error %s: %s" code reason
  | Refused { refusals } -> Fmt.pf ppf "refused (%d violation(s))" (List.length refusals)
  | r -> Fmt.string ppf (response_op r)

(* ------------------------------------------------------------------ *)
(* Primitive writers / readers                                         *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  if v < 0 then fail "negative length %d" v;
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_list buf put items =
  put_u32 buf (List.length items);
  List.iter (put buf) items

(* A reader is a string plus a mutable cursor with bounds checks. *)
type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then
    fail "truncated payload (need %d bytes at offset %d of %d)" n r.pos
      (String.length r.data)

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_list r get =
  let n = get_u32 r in
  List.init n (fun _ -> get r)

let finish r v =
  if r.pos <> String.length r.data then
    fail "trailing garbage: %d unconsumed byte(s)" (String.length r.data - r.pos);
  v

let put_format buf = function Prometheus -> put_u8 buf 1 | Json -> put_u8 buf 2

let get_format r =
  match get_u8 r with
  | 1 -> Prometheus
  | 2 -> Json
  | t -> fail "unknown metrics format tag %d" t

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* Both encoders fill the one spare buffer. *)
let spare = Axml_xml.Spare_buffer.create ()

let encode_request (req : request) : string =
  let buf = Axml_xml.Spare_buffer.take spare in
  (match req with
   | Ping -> put_u8 buf 1
   | Open_exchange { schema_xml; k } ->
     put_u8 buf 2;
     put_str buf schema_xml;
     put_u32 buf k
   | Exchange { exchange; as_name; doc_xml } ->
     put_u8 buf 3;
     put_u32 buf exchange;
     put_str buf as_name;
     put_str buf doc_xml
   | Invoke { envelope } ->
     put_u8 buf 4;
     put_str buf envelope
   | Get_wsdl { service } ->
     put_u8 buf 5;
     put_str buf service
   | List_services -> put_u8 buf 6
   | List_documents -> put_u8 buf 7
   | Get_document { name } ->
     put_u8 buf 8;
     put_str buf name
   | Lint_exchange { schema_xml } ->
     put_u8 buf 9;
     put_str buf schema_xml
   | Get_metrics { format } ->
     put_u8 buf 10;
     put_format buf format);
  Axml_xml.Spare_buffer.contents spare buf

let decode_request (payload : string) : request =
  let r = { data = payload; pos = 0 } in
  let req =
    match get_u8 r with
    | 1 -> Ping
    | 2 ->
      let schema_xml = get_str r in
      let k = get_u32 r in
      Open_exchange { schema_xml; k }
    | 3 ->
      let exchange = get_u32 r in
      let as_name = get_str r in
      let doc_xml = get_str r in
      Exchange { exchange; as_name; doc_xml }
    | 4 -> Invoke { envelope = get_str r }
    | 5 -> Get_wsdl { service = get_str r }
    | 6 -> List_services
    | 7 -> List_documents
    | 8 -> Get_document { name = get_str r }
    | 9 -> Lint_exchange { schema_xml = get_str r }
    | 10 -> Get_metrics { format = get_format r }
    | t -> fail "unknown request tag %d" t
  in
  finish r req

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let put_refusal buf { at; context } =
  put_list buf put_u32 at;
  put_str buf context

let get_refusal r =
  let at = get_list r get_u32 in
  let context = get_str r in
  { at; context }

let encode_response (resp : response) : string =
  let buf = Axml_xml.Spare_buffer.take spare in
  (match resp with
   | Pong { peer; protocol } ->
     put_u8 buf 1;
     put_str buf peer;
     put_u32 buf protocol
   | Exchange_opened { id; k } ->
     put_u8 buf 2;
     put_u32 buf id;
     put_u32 buf k
   | Accepted { as_name; wire_bytes } ->
     put_u8 buf 3;
     put_str buf as_name;
     put_u32 buf wire_bytes
   | Refused { refusals } ->
     put_u8 buf 4;
     put_list buf put_refusal refusals
   | Envelope { envelope } ->
     put_u8 buf 5;
     put_str buf envelope
   | Wsdl { wsdl } ->
     put_u8 buf 6;
     put_str buf wsdl
   | Names { names } ->
     put_u8 buf 7;
     put_list buf put_str names
   | Document { doc_xml } ->
     put_u8 buf 8;
     put_str buf doc_xml
   | Report { json } ->
     put_u8 buf 9;
     put_str buf json
   | Metrics { format; body } ->
     put_u8 buf 10;
     put_format buf format;
     put_str buf body
   | Error { code; reason } ->
     put_u8 buf 11;
     put_str buf code;
     put_str buf reason);
  Axml_xml.Spare_buffer.contents spare buf

let decode_response (payload : string) : response =
  let r = { data = payload; pos = 0 } in
  let resp =
    match get_u8 r with
    | 1 ->
      let peer = get_str r in
      let protocol = get_u32 r in
      Pong { peer; protocol }
    | 2 ->
      let id = get_u32 r in
      let k = get_u32 r in
      Exchange_opened { id; k }
    | 3 ->
      let as_name = get_str r in
      let wire_bytes = get_u32 r in
      Accepted { as_name; wire_bytes }
    | 4 -> Refused { refusals = get_list r get_refusal }
    | 5 -> Envelope { envelope = get_str r }
    | 6 -> Wsdl { wsdl = get_str r }
    | 7 -> Names { names = get_list r get_str }
    | 8 -> Document { doc_xml = get_str r }
    | 9 -> Report { json = get_str r }
    | 10 ->
      let format = get_format r in
      let body = get_str r in
      Metrics { format; body }
    | 11 ->
      let code = get_str r in
      let reason = get_str r in
      Error { code; reason }
    | t -> fail "unknown response tag %d" t
  in
  finish r resp

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let magic = "AXF1"
let default_max_frame_bytes = 16 * 1024 * 1024

let write_frame oc payload =
  output_string oc magic;
  let n = String.length payload in
  output_char oc (Char.chr ((n lsr 24) land 0xff));
  output_char oc (Char.chr ((n lsr 16) land 0xff));
  output_char oc (Char.chr ((n lsr 8) land 0xff));
  output_char oc (Char.chr (n land 0xff));
  output_string oc payload;
  flush oc

(* Read exactly [n] bytes; [`Eof k] reports how many bytes arrived
   before the stream ended. *)
let really_read ic n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string b)
    else
      match input ic b off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
      | exception End_of_file -> `Eof off
  in
  go 0

(* Does [header] start with [magic]? Checked in place. *)
let has_magic header =
  header.[0] = magic.[0] && header.[1] = magic.[1] && header.[2] = magic.[2] && header.[3] = magic.[3]

let read_frame ?(max_bytes = default_max_frame_bytes) ic : string option =
  match really_read ic 8 with
  | `Eof 0 -> None
  | `Eof k -> fail "torn frame header (%d of 8 bytes)" k
  | `Ok header ->
    if not (has_magic header) then fail "bad frame magic %S" (String.sub header 0 4);
    let b i = Char.code header.[4 + i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_bytes then fail "frame of %d bytes exceeds the %d limit" n max_bytes;
    (match really_read ic n with
     | `Ok payload -> Some payload
     | `Eof k -> fail "torn frame payload (%d of %d bytes)" k n)
