(** A minimal HTTP/1.1 front for the parts of the endpoint that external
    tooling wants over plain HTTP: a Prometheus scrape and a one-shot
    document POST. Only what {!Server} needs — request-line + headers +
    [Content-Length] bodies, no chunking, no keep-alive pipelining. *)

exception Http_error of string

type request = {
  meth : string;           (** uppercased, e.g. ["GET"] *)
  path : string;           (** request target, e.g. ["/metrics"] *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

val read_request : ?max_body:int -> in_channel -> request option
(** [None] on clean EOF before any byte.
    @raise Http_error on a malformed request or a body over
    [max_body] (default {!Wire.default_max_frame_bytes}). *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val write_response :
  out_channel -> status:int -> ?content_type:string -> string -> unit
(** Write a complete [HTTP/1.1] response with [Content-Length] and
    [Connection: close], then flush. *)
