(** The Active XML wire protocol: typed requests/responses for what a
    peer serves (exchanges, service calls, WSDL, stored documents,
    metrics), a deterministic binary codec, and length-prefixed
    framing.

    The protocol is the {e transport-agnostic} contract between peers:
    [Endpoint.handle] consumes {!request}s and produces {!response}s
    whether they arrived over a socket, an HTTP POST, or an in-process
    function call. XML payloads (documents, schemas, SOAP envelopes)
    travel as their existing XML wire syntax inside binary
    length-prefixed fields, so the codec never has to re-escape them and
    [decode ∘ encode] is the identity on every message
    (property-tested). *)

exception Wire_error of string
(** Corrupt framing or an undecodable payload. *)

val protocol_version : int
(** Version of the framed binary protocol (independent of
    {!Axml_peer.Soap.protocol_version}, which versions envelopes).
    Version 2 added the rewriting depth [k] to
    {!Open_exchange}/{!Exchange_opened}, so both sides of an agreement
    provably enforce at the same bound. *)

(** {1 Messages}

    Document, schema and envelope payloads are carried as XML strings
    ([Axml_peer.Syntax] / [Axml_peer.Xml_schema_int] / [Axml_peer.Soap]
    syntax); parsing happens at the endpoint, once per stream for
    schemas (see {!Open_exchange}). *)

type metrics_format = Prometheus | Json

type request =
  | Ping
  | Open_exchange of { schema_xml : string; k : int }
      (** Declare the agreed exchange schema (and the sender's
          rewriting depth [k]) once; subsequent {!Exchange}s reference
          the returned id, so the receiver compiles its validation
          context once per agreement, not once per document. The
          receiver refuses (["k-mismatch"]) when [k] differs from its
          own configured depth — the two ends must enforce at the same
          bound. *)
  | Exchange of { exchange : int; as_name : string; doc_xml : string }
      (** One document crossing the wire under an opened agreement. *)
  | Invoke of { envelope : string }
      (** Remote service invocation: a {!Axml_peer.Soap} request
          envelope, answered by a response or fault envelope. *)
  | Get_wsdl of { service : string }
  | List_services
  | Get_document of { name : string }
  | Get_metrics of { format : metrics_format }

type refusal = { at : Axml_core.Document.path; context : string }
(** One validation violation of a refused exchange, mirroring the
    failures [Axml_peer.Peer.receive] reports in-process. *)

type response =
  | Pong of { peer : string; protocol : int }
  | Exchange_opened of { id : int; k : int }
      (** The agreement id plus the depth both sides now enforce at
          (echoes the request's [k]). *)
  | Accepted of { as_name : string; wire_bytes : int }
  | Refused of { refusals : refusal list }
  | Envelope of { envelope : string }
  | Wsdl of { wsdl : string }
  | Names of { names : string list }
  | Document of { doc_xml : string }
  | Metrics of { format : metrics_format; body : string }
  | Error of { code : string; reason : string }
      (** Transport- or endpoint-level failure; stable [code]s:
          ["overloaded"], ["shutting-down"], ["unknown-exchange"],
          ["unknown-service"], ["unknown-document"], ["protocol"],
          ["fault"], ["k-mismatch"]. *)

val request_op : request -> string
(** Stable lowercase operation name (metrics label / logging). *)

val pp_request : request Fmt.t
val pp_response : response Fmt.t

(** {1 Codec}

    A message is its constructor's tag byte, then its fields. Tags are
    never reused: request tags 7 and 9 and response tag 9 are
    unassigned, so a payload starting with one is undecodable, as any
    unknown tag is, and a server answers it with a ["protocol"] error. *)

val encode_request : request -> string
val decode_request : string -> request
(** @raise Wire_error on an undecodable payload. *)

val encode_response : response -> string
val decode_response : string -> response
(** @raise Wire_error on an undecodable payload. *)

(** {1 Framing}

    A frame is [magic] (4 bytes), a big-endian 32-bit payload length,
    then the payload. Peers sniff the first bytes of a connection to
    tell framed protocol from HTTP. One writer ({!write}) and one reader
    ({!read}) frame every stream: a client's, each server connection's
    and a repository's journal. *)

val magic : string
(** ["AXF1"]. *)

val max_frame_bytes : int
(** 16 MiB: the admission-control bound on a single payload, framed or
    an HTTP body. *)

val write : out_channel -> (Buffer.t -> 'a -> unit) -> 'a -> unit
(** [write oc put x] writes one frame whose payload [put] adds to a
    buffer, and flushes. The payload is encoded into a spare buffer kept
    from write to write and output from it: no payload string is built,
    so once that buffer has grown, a write allocates nothing. *)

val write_request : out_channel -> request -> unit
(** One frame holding {!encode_request}'s bytes. *)

val write_response : out_channel -> response -> unit
(** One frame holding {!encode_response}'s bytes. *)

type frame
(** A connection's receive buffer, filled in place by {!read}. It
    starts at 4 KiB and grows only as payload bytes arrive (at most
    twice the bytes read, never past the announced length). A frame
    longer than {!Axml_xml.Spare_buffer.max_kept} is not kept: decoding
    it, or the next {!read}, puts the buffer back to 4 KiB. Not safe to
    share between threads. *)

val frame : unit -> frame
(** A fresh frame of 4 KiB. *)

val read : frame -> in_channel -> bool
(** Read one frame's payload into the frame: [false] on clean EOF
    before any byte of a frame.
    @raise Wire_error on a bad magic, a declared length over
    {!max_frame_bytes}, or EOF mid-frame (a torn frame). *)

val read_bytes : in_channel -> int -> string
(** [read_bytes ic n]: the next [n] bytes of [ic], fewer only when the
    stream ends first. Memory follows the bytes that arrive, under
    {!read}'s growth rule (from 4 KiB, at most twice the bytes read),
    not [n]. *)

val request_of_frame : frame -> request
(** Decode the payload last {!read}: only the strings the request keeps
    are copied out of the frame.
    @raise Wire_error on an undecodable payload. *)

val response_of_frame : frame -> response
(** As {!request_of_frame}, for a response. *)

val payload : frame -> string
(** A copy of the payload last {!read}. *)
