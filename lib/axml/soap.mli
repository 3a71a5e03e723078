(** SOAP-style envelopes for peer-to-peer exchanges: every call between
    peers serializes its (possibly intensional) parameters and results
    through this wire format. *)

val soap_ns : string

val protocol_version : int
(** The envelope protocol version this library speaks (and stamps on
    every encoded envelope as an [int:protocol] attribute). Version 1
    is the historical unversioned envelope; decoding accepts every
    version up to [protocol_version]. *)

exception Protocol_error of string

exception Unsupported_version of { got : int; supported : int }
(** A well-formed envelope declaring a protocol version this peer does
    not speak — distinct from {!Protocol_error} so wire peers can
    negotiate or reject cleanly (a typed ["VersionMismatch"] fault)
    instead of treating it as a generic decode failure. *)

type message =
  | Request of { method_name : string; params : Axml_core.Document.forest }
  | Response of { method_name : string; result : Axml_core.Document.forest }
  | Fault of { code : string; reason : string }

val encode : ?version:int -> message -> string
(** [version] (default {!protocol_version}) is stamped on the envelope;
    pass an explicit value only to test version negotiation. *)

val decode : string -> message
(** @raise Protocol_error on malformed envelopes, malformed
    intensional markup in [int:args] or [int:result] included.
    @raise Unsupported_version when the envelope declares a version
    above {!protocol_version} (an envelope without the attribute is
    version 1). *)

val wire_version : string -> int option
(** The protocol version a wire envelope declares ([Some 1] for a
    legacy unversioned envelope), or [None] when the bytes are not an
    envelope at all — a cheap pre-flight peek for negotiation. *)
