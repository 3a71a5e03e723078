(** A minimal HTTP/1.1 front for the parts of the endpoint that external
    tooling wants over plain HTTP: a Prometheus scrape and a one-shot
    document POST. Only what {!Server} needs — request-line + headers +
    [Content-Length] bodies, no chunking, no keep-alive pipelining. *)

exception Http_error of { status : int; reason : string }
(** A request refused before routing, with the status to answer: 413
    for a body over the cap, 431 for a request line or header over
    {!max_line_bytes} or more than {!max_headers} headers, 400 for
    anything else malformed, a [Content-Length] that is not ASCII
    decimal digits included. *)

val max_line_bytes : int
(** 8 KiB: the most bytes a request line or header line may hold
    before its line feed. *)

val max_headers : int
(** 100: the most header lines one request may carry. *)

type request = {
  meth : string;           (** uppercased, e.g. ["GET"] *)
  path : string;           (** request target, e.g. ["/metrics"] *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

val read_request : in_channel -> request option
(** [None] on clean EOF before any byte. Memory follows the bytes that
    arrive: a head line costs at most {!max_line_bytes}, and the body
    grows under {!Wire.read_bytes}'s rule, not to its announced
    [Content-Length].
    @raise Http_error on a malformed request, an over-long head or a
    body over {!Wire.max_frame_bytes}. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val write_response :
  out_channel -> status:int -> ?content_type:string -> string -> unit
(** Write a complete [HTTP/1.1] response with [Content-Length] and
    [Connection: close], then flush. *)
