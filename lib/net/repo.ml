(* Append-only journal + snapshot persistence for a peer's repository.

   Journal records reuse the wire framing (magic + length prefix), so a
   crash mid-append leaves a torn tail the framing detects; recovery
   truncates it and keeps everything before. *)

module D = Axml_core.Document
module Peer = Axml_peer.Peer
module Syntax = Axml_peer.Syntax

exception Repo_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Repo_error m)) fmt

type t = {
  dir : string;
  peer : Peer.t;
  lock : Mutex.t;
  mutable oc : out_channel option; (* [None] after {!close} *)
  mutable entries : int;
  mutable recovered : int;
  mutable skipped : int; (* corrupt snapshot entries ignored at recovery *)
  snapshot : (string, unit) Hashtbl.t; (* the names the manifest lists *)
  pending : (string, D.t) Hashtbl.t;
    (* the last document journalled under each name since the snapshot *)
}

let journal_path dir = Filename.concat dir "journal.log"
let snapshot_dir dir = Filename.concat dir "snapshot"
let manifest_path dir = Filename.concat (snapshot_dir dir) "MANIFEST"

let mkdir_p path =
  let rec go path =
    if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* Snapshot file names are percent-encoded so arbitrary repository
   names round-trip safely. *)

let is_safe_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.'

let encode_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      if is_safe_char c then Buffer.add_char buf c
      else Buffer.add_string buf (Fmt.str "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf

let decode_name encoded =
  let buf = Buffer.create (String.length encoded) in
  let n = String.length encoded in
  let rec go i =
    if i < n then begin
      if encoded.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub encoded (i + 1) 2) with
         | Some code -> Buffer.add_char buf (Char.chr code)
         | None -> fail "bad escape in stored name %S" encoded);
        go (i + 3)
      end
      else begin
        Buffer.add_char buf encoded.[i];
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

let save_document ~path doc =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (Syntax.to_xml_string doc);
  close_out oc

let load_document ~path =
  let ic = open_in_bin path in
  let xml =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  try Syntax.of_xml_string xml
  with Syntax.Syntax_error m -> fail "%s: %s" path m

(* One journal record: length-prefixed repository name, then the
   document's XML wire syntax to the end of the payload. *)

let put_record buf (name, xml) =
  let n = String.length name in
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_string buf name;
  Buffer.add_string buf xml

let decode_record payload =
  if String.length payload < 4 then fail "journal record too short";
  let b i = Char.code payload.[i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if 4 + n > String.length payload then fail "journal record name overruns";
  let name = String.sub payload 4 n in
  let xml = String.sub payload (4 + n) (String.length payload - 4 - n) in
  (name, xml)

(* Replay what the manifest lists. A corrupt manifest line (or a listed
   file that is missing or unparseable) is skipped and counted, never
   fatal: a repository whose snapshot was damaged on disk must still
   come up with every intact document plus the journal suffix. *)
let replay_snapshot t =
  let manifest = manifest_path t.dir in
  if Sys.file_exists manifest then begin
    let ic = open_in manifest in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    try
      while true do
        let line = input_line ic in
        match decode_name line with
        | exception Repo_error _ -> t.skipped <- t.skipped + 1
        | name ->
          let path =
            Filename.concat (snapshot_dir t.dir) (encode_name name ^ ".xml")
          in
          (match load_document ~path with
           | doc ->
             Peer.store t.peer name doc;
             Hashtbl.replace t.snapshot name ();
             t.recovered <- t.recovered + 1
           | exception Repo_error _ -> t.skipped <- t.skipped + 1
           | exception Sys_error _ -> t.skipped <- t.skipped + 1)
      done
    with End_of_file -> ()
  end

(* Replay intact records; on the first torn or corrupt one, truncate the
   journal there and stop — that is the record the crash interrupted. *)
let replay_journal t =
  let path = journal_path t.dir in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let frame = Wire.frame () in
    let truncate_at = ref (-1) in
    (Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
     let rec go () =
       let pos = pos_in ic in
       match Wire.read frame ic with
       | false -> ()
       | true ->
         let name, xml = decode_record (Wire.payload frame) in
         let doc =
           try Syntax.of_xml_string xml
           with Syntax.Syntax_error m ->
             fail "journal record %S: %s" name m
         in
         Peer.store t.peer name doc;
         Hashtbl.replace t.pending name doc;
         t.recovered <- t.recovered + 1;
         t.entries <- t.entries + 1;
         go ()
       | exception Wire.Wire_error _ -> truncate_at := pos
     in
     go ());
    if !truncate_at >= 0 then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd !truncate_at;
      Unix.close fd
    end
  end

let journal_channel t =
  match t.oc with
  | Some oc -> oc
  | None -> fail "repository %s is closed" t.dir

(* Flush a directory's metadata (new names, renames) to disk; best
   effort on filesystems that refuse fsync on directories. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Only the documents journalled since the last snapshot are written:
   every other file the manifest lists already holds its name's last
   store. *)
let snapshot_locked t =
  let snap = snapshot_dir t.dir in
  mkdir_p snap;
  Hashtbl.iter
    (fun name doc ->
       save_document ~path:(Filename.concat snap (encode_name name ^ ".xml")) doc;
       Hashtbl.replace t.snapshot name ())
    t.pending;
  (* The manifest is written last, fsynced, and renamed into place (with
     the directory entry fsynced too): a crash — or power cut — during
     the snapshot leaves the previous manifest (and journal) intact, and
     a completed rename refers to data that actually reached the disk. *)
  let tmp = manifest_path t.dir ^ ".tmp" in
  let oc = open_out tmp in
  Hashtbl.iter (fun name () -> output_string oc (encode_name name ^ "\n")) t.snapshot;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp (manifest_path t.dir);
  fsync_dir snap;
  Hashtbl.reset t.pending

let compact_locked t =
  snapshot_locked t;
  (match t.oc with Some oc -> close_out_noerr oc | None -> ());
  t.oc <- Some (open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
                  0o644 (journal_path t.dir));
  t.entries <- 0

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let compact_every = 1024

let attach ~dir peer =
  mkdir_p dir;
  let t =
    { dir; peer; lock = Mutex.create (); oc = None;
      entries = 0; recovered = 0; skipped = 0;
      snapshot = Hashtbl.create 64; pending = Hashtbl.create 64 }
  in
  replay_snapshot t;
  replay_journal t;
  t.oc <- Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
                  (journal_path t.dir));
  t

let record_store t name doc =
  with_lock t @@ fun () ->
  let oc = journal_channel t in
  Wire.write oc put_record (name, Syntax.to_xml_string ~pretty:false doc);
  Hashtbl.replace t.pending name doc;
  t.entries <- t.entries + 1;
  if t.entries >= compact_every then compact_locked t

let compact t =
  with_lock t @@ fun () ->
  ignore (journal_channel t);
  compact_locked t

let journal_entries t = t.entries
let recovered t = t.recovered
let skipped t = t.skipped
let dir t = t.dir

let close t =
  with_lock t @@ fun () ->
  match t.oc with
  | None -> ()
  | Some oc ->
    close_out_noerr oc;
    t.oc <- None
