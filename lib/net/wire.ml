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
  | Get_document of { name : string }
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
  | Metrics of { format : metrics_format; body : string }
  | Error of { code : string; reason : string }

let request_op = function
  | Ping -> "ping"
  | Open_exchange _ -> "open-exchange"
  | Exchange _ -> "exchange"
  | Invoke _ -> "invoke"
  | Get_wsdl _ -> "wsdl"
  | List_services -> "list-services"
  | Get_document _ -> "get-document"
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

(* A reader is a payload's bytes (the first [limit] of [data]) and a
   cursor, with bounds checks. A connection's {!frame} is one reader
   whose bytes are reused from frame to frame. *)
type reader = { mutable data : bytes; mutable limit : int; mutable pos : int }

let reader_of_string s = { data = Bytes.unsafe_of_string s; limit = String.length s; pos = 0 }

let need r n =
  if r.pos + n > r.limit then
    fail "truncated payload (need %d bytes at offset %d of %d)" n r.pos r.limit

let get_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

(* Spelled out: a local [b i] would be a closure allocated per call. *)
let u32_at data off =
  (Char.code (Bytes.get data off) lsl 24)
  lor (Char.code (Bytes.get data (off + 1)) lsl 16)
  lor (Char.code (Bytes.get data (off + 2)) lsl 8)
  lor Char.code (Bytes.get data (off + 3))

let get_u32 r =
  need r 4;
  let v = u32_at r.data r.pos in
  r.pos <- r.pos + 4;
  v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_list r get =
  let n = get_u32 r in
  List.init n (fun _ -> get r)

let finish r v =
  if r.pos <> r.limit then
    fail "trailing garbage: %d unconsumed byte(s)" (r.limit - r.pos);
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

let put_request buf (req : request) =
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
   | Get_document { name } ->
     put_u8 buf 8;
     put_str buf name
   | Get_metrics { format } ->
     put_u8 buf 10;
     put_format buf format)

let request_of (r : reader) : request =
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
    | 8 -> Get_document { name = get_str r }
    | 10 -> Get_metrics { format = get_format r }
    | t -> fail "unknown request tag %d" t
  in
  finish r req

let decode_request payload = request_of (reader_of_string payload)

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

let put_response buf (resp : response) =
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
   | Metrics { format; body } ->
     put_u8 buf 10;
     put_format buf format;
     put_str buf body
   | Error { code; reason } ->
     put_u8 buf 11;
     put_str buf code;
     put_str buf reason)

let response_of (r : reader) : response =
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

let decode_response payload = response_of (reader_of_string payload)

(* Every encoder and every frame writer fills the one spare buffer. *)
let spare = Axml_xml.Spare_buffer.create ()

let encode put x =
  let buf = Axml_xml.Spare_buffer.take spare in
  put buf x;
  Axml_xml.Spare_buffer.contents spare buf

let encode_request req = encode put_request req
let encode_response resp = encode put_response resp

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let magic = "AXF1"
let max_frame_bytes = 16 * 1024 * 1024

(* The one frame writer: the payload is encoded into the spare buffer,
   which goes to the channel after the header without becoming a
   string. The buffer is given back before the flush, so a writer
   waiting on the socket holds no spare unless the frame outgrew the
   channel's own buffer. *)
let write oc put x =
  let buf = Axml_xml.Spare_buffer.take spare in
  put buf x;
  let n = Buffer.length buf in
  output_string oc magic;
  output_char oc (Char.unsafe_chr ((n lsr 24) land 0xff));
  output_char oc (Char.unsafe_chr ((n lsr 16) land 0xff));
  output_char oc (Char.unsafe_chr ((n lsr 8) land 0xff));
  output_char oc (Char.unsafe_chr (n land 0xff));
  Buffer.output_buffer oc buf;
  Axml_xml.Spare_buffer.release spare buf;
  flush oc

let write_request oc req = write oc put_request req
let write_response oc resp = write oc put_response resp

(* The one frame reader fills a connection's reader in place. Its bytes
   start at [first_size] and grow (doubling, never past the announced
   length) only as payload bytes arrive, so a frame that announces much
   and sends little costs little; after a frame longer than
   [Spare_buffer.max_kept] they go back to [first_size]. *)
type frame = reader

let first_size = 4096

let frame () = { data = Bytes.create first_size; limit = 0; pos = 0 }

(* Does [b] start with [magic]? Checked in place. *)
let has_magic b =
  Bytes.get b 0 = magic.[0] && Bytes.get b 1 = magic.[1] && Bytes.get b 2 = magic.[2]
  && Bytes.get b 3 = magic.[3]

let settle fr =
  if Bytes.length fr.data > Axml_xml.Spare_buffer.max_kept then
    fr.data <- Bytes.create first_size

(* Read into [fr.data] from [off] until [n] bytes are there or the
   stream ends; the number of bytes there. *)
let rec fill fr ic off n =
  if off >= n then off
  else begin
    if off = Bytes.length fr.data then begin
      let grown = Bytes.create (min n (2 * off)) in
      Bytes.blit fr.data 0 grown 0 off;
      fr.data <- grown
    end;
    match input ic fr.data off (min n (Bytes.length fr.data) - off) with
    | 0 -> off
    | k -> fill fr ic (off + k) n
  end

let read_bytes ic n =
  let fr = frame () in
  let k = fill fr ic 0 n in
  (* the frame is this call's own, so bytes it filled exactly become
     the string uncopied *)
  if k = Bytes.length fr.data then Bytes.unsafe_to_string fr.data
  else Bytes.sub_string fr.data 0 k

let read fr ic =
  settle fr;
  fr.limit <- 0;
  match fill fr ic 0 8 with
  | 0 -> false
  | k when k < 8 -> fail "torn frame header (%d of 8 bytes)" k
  | _ ->
    if not (has_magic fr.data) then
      fail "bad frame magic %S" (Bytes.sub_string fr.data 0 4);
    let n = u32_at fr.data 4 in
    if n > max_frame_bytes then
      fail "frame of %d bytes exceeds the %d limit" n max_frame_bytes;
    let k = fill fr ic 0 n in
    if k < n then fail "torn frame payload (%d of %d bytes)" k n;
    fr.limit <- n;
    true

(* Decode the frame just read; only the strings the value keeps are
   copied out of it. *)
let of_frame decode fr =
  fr.pos <- 0;
  let v = decode fr in
  settle fr;
  v

let request_of_frame fr = of_frame request_of fr
let response_of_frame fr = of_frame response_of fr

let payload fr = Bytes.sub_string fr.data 0 fr.limit
