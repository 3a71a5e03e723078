(** A persistent document repository behind a peer: an append-only
    journal of stores plus periodic snapshots, with recovery on startup.

    Layout under the repository directory:

    {v
<dir>/snapshot/MANIFEST        one repository name per line (written last)
<dir>/snapshot/<enc>.xml       one intensional document per entry
<dir>/journal.log              framed store records since the snapshot
    v}

    {!attach} replays snapshot then journal into the peer's in-memory
    repository; a torn journal tail (the record being appended when the
    process died) is detected by the framing and dropped, everything
    before it is recovered. Corrupt snapshot state (a garbage MANIFEST
    line, a missing or unparseable snapshot file) is skipped and counted
    ({!skipped}), never fatal. {!record_store} appends one frame per
    store and compacts automatically every {!compact_every} records.

    A snapshot holds what {!record_store} journalled: {!compact} writes
    the snapshot file of each name journalled since the last snapshot
    (the records {!attach} replayed included), lists those names and
    the ones already in the snapshot in a new manifest, and truncates
    the journal. A compaction's cost follows the stores since the last
    one, not the repository's size. The manifest is fsynced and renamed
    into place, then the directory entry fsynced, so a power cut cannot
    leave a half-written manifest. Documents stored in the peer without
    {!record_store} are not persisted. *)

exception Repo_error of string

type t

val compact_every : int
(** 1024: the journal length at which {!record_store} compacts. *)

val attach : dir:string -> Axml_peer.Peer.t -> t
(** Open (creating directories as needed) and recover: every snapshot
    document and every intact journal record is {!Axml_peer.Peer.store}d
    into the peer. A torn trailing record is truncated away.
    @raise Repo_error on unreadable state. *)

val record_store : t -> string -> Axml_core.Document.t -> unit
(** Append one store to the journal (and compact if due). Serialized
    behind an internal mutex: safe from concurrent server threads. *)

val compact : t -> unit
(** Snapshot what was journalled since the last snapshot and truncate
    the journal. *)

val journal_entries : t -> int
(** Records appended since the last snapshot (after recovery: the
    replayed count). *)

val recovered : t -> int
(** Documents recovered by {!attach} (snapshot + journal). *)

val skipped : t -> int
(** Corrupt snapshot entries ignored by {!attach}: undecodable MANIFEST
    lines, and listed documents that were missing or unparseable. *)

val dir : t -> string

val encode_name : string -> string
(** The snapshot file name (and MANIFEST line) of a repository name:
    percent-encoding of every byte outside [[A-Za-z0-9._-]], so
    arbitrary names round-trip through {!decode_name}. *)

val decode_name : string -> string
(** Inverse of {!encode_name}.
    @raise Repo_error on a malformed escape. *)

val close : t -> unit
(** Flush and close the journal. The repository stays readable for a
    later {!attach}; using [t] after [close] raises [Repo_error]. *)
