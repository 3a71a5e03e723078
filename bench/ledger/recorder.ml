(* Bench-side spans for the ledger's traced replay.

   Each span is one call into a layer's public function, recorded from
   outside the program: its layer, the document it served, its parent
   span, start and end on the monotonic clock, and the minor-heap words
   allocated in between. Spans live in flat arrays allocated before the
   replay starts, so recording allocates nothing per span; the arrays
   only grow if an estimate was short. One recorder serves one lane
   (one thread), so no locking is needed. *)

type layer =
  | Doc            (* the workload's top-level call for one document *)
  | Xml_parser
  | Syntax_of_xml
  | Enforcement
  | Service        (* one service invocation, inside enforcement *)
  | Syntax_to_xml
  | Xml_print
  | Peer_receive
  | Client_rpc

let layers =
  [| Doc; Xml_parser; Syntax_of_xml; Enforcement; Service; Syntax_to_xml;
     Xml_print; Peer_receive; Client_rpc |]

let index = function
  | Doc -> 0
  | Xml_parser -> 1
  | Syntax_of_xml -> 2
  | Enforcement -> 3
  | Service -> 4
  | Syntax_to_xml -> 5
  | Xml_print -> 6
  | Peer_receive -> 7
  | Client_rpc -> 8

let name = function
  | Doc -> "ledger.doc"
  | Xml_parser -> "xml_parser"
  | Syntax_of_xml -> "syntax.of_xml"
  | Enforcement -> "enforcement"
  | Service -> "execute.service"
  | Syntax_to_xml -> "syntax.to_xml"
  | Xml_print -> "xml_print"
  | Peer_receive -> "peer.receive"
  | Client_rpc -> "client.rpc"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  lane : int;
  mutable layer : int array;
  mutable doc : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable words_start : float array;
  mutable words_stop : float array;
  mutable len : int;
  stack : int array;
  mutable depth : int;
  mutable current_doc : int;
}

let create ~lane ~capacity =
  let capacity = max 16 capacity in
  { lane;
    layer = Array.make capacity 0;
    doc = Array.make capacity 0;
    parent = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    words_start = Array.make capacity 0.;
    words_stop = Array.make capacity 0.;
    len = 0;
    stack = Array.make 64 0;
    depth = 0;
    current_doc = 0 }

let grow t =
  let n = 2 * Array.length t.layer in
  let ints a = Array.append a (Array.make (n - Array.length a) 0) in
  let floats a = Array.append a (Array.make (n - Array.length a) 0.) in
  t.layer <- ints t.layer;
  t.doc <- ints t.doc;
  t.parent <- ints t.parent;
  t.start <- ints t.start;
  t.stop <- ints t.stop;
  t.words_start <- floats t.words_start;
  t.words_stop <- floats t.words_stop

let set_doc t doc = t.current_doc <- doc

let enter t layer =
  if t.len = Array.length t.layer then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.layer.(i) <- index layer;
  t.doc.(i) <- t.current_doc;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.words_start.(i) <- Gc.minor_words ();
  t.start.(i) <- now_ns ()

let leave t =
  let i = t.stack.(t.depth - 1) in
  t.stop.(i) <- now_ns ();
  t.words_stop.(i) <- Gc.minor_words ();
  t.depth <- t.depth - 1

let span t layer f =
  enter t layer;
  match f () with
  | v -> leave t; v
  | exception e -> leave t; raise e

(* The documents of the recorded [Doc] spans, in order. *)
let docs t =
  List.filter_map
    (fun i -> if t.layer.(i) = index Doc then Some t.doc.(i) else None)
    (List.init t.len Fun.id)

(* Per-layer sums over every recorded span: count, duration, self time
   (duration minus the time covered by child spans) and allocated
   words. *)
type totals = {
  count : int array;
  dur_ns : float array;
  self_ns : float array;
  words : float array;
}

(* Time covered by each span's direct children. *)
let child_ns t =
  let c = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then c.(p) <- c.(p) + (t.stop.(i) - t.start.(i))
  done;
  c

let totals recorders =
  let n = Array.length layers in
  let count = Array.make n 0 in
  let dur_ns = Array.make n 0. in
  let self_ns = Array.make n 0. in
  let words = Array.make n 0. in
  List.iter
    (fun t ->
      let children = child_ns t in
      for i = 0 to t.len - 1 do
        let l = t.layer.(i) in
        let d = t.stop.(i) - t.start.(i) in
        count.(l) <- count.(l) + 1;
        dur_ns.(l) <- dur_ns.(l) +. float_of_int d;
        self_ns.(l) <- self_ns.(l) +. float_of_int (d - children.(i));
        words.(l) <- words.(l) +. (t.words_stop.(i) -. t.words_start.(i))
      done)
    recorders;
  { count; dur_ns; self_ns; words }

(* Durations of the [Doc] spans, in ns. *)
let doc_durations recorders =
  Array.concat
    (List.map
       (fun t ->
         Array.of_list
           (List.filter_map
              (fun i ->
                if t.layer.(i) = index Doc then Some (t.stop.(i) - t.start.(i)) else None)
              (List.init t.len Fun.id)))
       recorders)

(* Over the [Doc] spans no longer than [cut] ns: the mean duration and
   the mean time covered by their direct children, the layers the
   top-level call was broken into. *)
let doc_means recorders ~cut =
  let n = ref 0 and dur = ref 0 and covered = ref 0 in
  List.iter
    (fun t ->
      let children = child_ns t in
      for i = 0 to t.len - 1 do
        let d = t.stop.(i) - t.start.(i) in
        if t.layer.(i) = index Doc && d <= cut then begin
          incr n;
          dur := !dur + d;
          covered := !covered + children.(i)
        end
      done)
    recorders;
  let n = float_of_int (max 1 !n) in
  (float_of_int !dur /. n, float_of_int !covered /. n)

(* One JSON object per span, in recording order per lane. *)
let write_jsonl oc ~workload recorders =
  List.iter
    (fun t ->
      let children = child_ns t in
      for i = 0 to t.len - 1 do
        let d = t.stop.(i) - t.start.(i) in
        Printf.fprintf oc
          "{\"workload\": %s, \"lane\": %d, \"id\": %d, \"parent\": %d, \"doc\": \
           %d, \"name\": %s, \"start_ns\": %d, \"end_ns\": %d, \"self_ns\": %d, \
           \"words\": %.0f}\n"
          (Json.escape workload) t.lane i t.parent.(i) t.doc.(i)
          (Json.escape (name layers.(t.layer.(i))))
          t.start.(i) t.stop.(i) (d - children.(i))
          (t.words_stop.(i) -. t.words_start.(i))
      done)
    recorders
