(* Process-wide metrics registry: families of counters / gauges /
   histograms with labels. Registration is mutex-protected; updates are
   single Atomic operations so instrumented hot paths never contend. *)

type labels = (string * string) list

(* Gauge values are floats stored as int64 bit patterns inside an
   Atomic, so [add] can be a CAS loop without a lock and readers never
   see a torn value. *)
module Afloat = struct
  type t = int64 Atomic.t

  let make v : t = Atomic.make (Int64.bits_of_float v)
  let get (t : t) = Int64.float_of_bits (Atomic.get t)

  (* A store boxes its bit pattern, so storing the value already held
     is skipped: a gauge set to a float the caller already holds boxed
     allocates nothing. *)
  let set (t : t) v =
    let bits = Int64.bits_of_float v in
    if not (Int64.equal (Atomic.get t) bits) then Atomic.set t bits

  let rec add (t : t) d =
    let cur = Atomic.get t in
    let next = Int64.bits_of_float (Int64.float_of_bits cur +. d) in
    if not (Atomic.compare_and_set t cur next) then add t d
end

type counter = { c_value : int Atomic.t }
type gauge = { g_value : Afloat.t }

(* A histogram's sum is an integer count of its unit: nanoseconds for a
   family named [*_seconds], whole units (bytes, items) for any other.
   Adding an integer is one fetch-and-add and boxes nothing, where a
   float sum boxed a fresh int64 on every compare-and-set. A value too
   large for an integer count (or not finite) goes to [h_rest], which
   only such values touch: its compare-and-set loop is written inline,
   so that [observe] hands its float to no function and it stays
   unboxed. *)
type histogram = {
  h_bounds : float array;        (* sorted upper bounds, +Inf excluded *)
  h_counts : int Atomic.t array; (* per-bucket (non-cumulative); length = bounds + 1,
                                    last slot is the +Inf overflow bucket *)
  h_sum : int Atomic.t;          (* in units of 1 / h_scale *)
  h_scale : float;               (* units per observed value: 1e9 for seconds, else 1 *)
  h_rest : float Atomic.t;       (* what [h_sum] cannot count *)
  h_count : int Atomic.t;
  h_clock : (unit -> float) ref; (* shared with the owning registry *)
}

type child =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type family = {
  f_name : string;
  f_type : [ `Counter | `Gauge | `Histogram ];
  f_help : string;
  f_buckets : float array; (* histograms only *)
  f_children : (string, labels * child) Hashtbl.t; (* key: canonical labels *)
}

type t = {
  families : (string, family) Hashtbl.t;
  lock : Mutex.t;
  clock : (unit -> float) ref;
}

let create ?(clock = Unix.gettimeofday) () =
  { families = Hashtbl.create 32; lock = Mutex.create (); clock = ref clock }

let default = create ()
let set_clock t now = t.clock := now
let now t = !(t.clock) ()

(* ---------- name / label validation ---------- *)

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let valid_label_key s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let canonical labels =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  List.iter
    (fun (k, _) ->
      if not (valid_label_key k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  (labels, String.concat "\x00" (List.concat_map (fun (k, v) -> [ k; v ]) labels))

(* ---------- registration ---------- *)

let type_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let default_buckets =
  [ 5e-6; 2.5e-5; 1e-4; 5e-4; 2.5e-3; 1e-2; 5e-2; 2.5e-1; 1.0 ]

let get_family t ~name ~typ ~help ~buckets =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.f_type <> typ then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s, not a %s"
             name (type_name f.f_type) (type_name typ));
      f
  | None ->
      let buckets =
        Array.of_list (List.sort_uniq compare buckets)
      in
      let f =
        { f_name = name; f_type = typ; f_help = help; f_buckets = buckets;
          f_children = Hashtbl.create 4 }
      in
      Hashtbl.add t.families name f;
      f

let get_child t ~name ~typ ~help ~buckets ~labels ~make =
  let labels, key = canonical labels in
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let f = get_family t ~name ~typ ~help ~buckets in
  match Hashtbl.find_opt f.f_children key with
  | Some (_, child) -> child
  | None ->
      let child = make f in
      Hashtbl.add f.f_children key (labels, child);
      child

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  match
    get_child registry ~name ~typ:`Counter ~help ~buckets:[] ~labels
      ~make:(fun _ -> Counter { c_value = Atomic.make 0 })
  with
  | Counter c -> c
  | _ -> assert false

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  match
    get_child registry ~name ~typ:`Gauge ~help ~buckets:[] ~labels
      ~make:(fun _ -> Gauge { g_value = Afloat.make 0. })
  with
  | Gauge g -> g
  | _ -> assert false

let histogram ?(registry = default) ?(help = "") ?(buckets = default_buckets)
    ?(labels = []) name =
  match
    get_child registry ~name ~typ:`Histogram ~help ~buckets ~labels
      ~make:(fun f ->
        Histogram
          { h_bounds = f.f_buckets;
            h_counts = Array.init (Array.length f.f_buckets + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0;
            h_scale = (if String.ends_with ~suffix:"_seconds" name then 1e9 else 1.);
            h_rest = Atomic.make 0.;
            h_count = Atomic.make 0;
            h_clock = registry.clock })
  with
  | Histogram h -> h
  | _ -> assert false

(* ---------- updates ---------- *)

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.inc: counters are monotone";
  ignore (Atomic.fetch_and_add c.c_value by)

let counter_value c = Atomic.get c.c_value
let set g v = Afloat.set g.g_value v
let add g d = Afloat.add g.g_value d
let gauge_value g = Afloat.get g.g_value

let[@inline] bucket_index (bounds : float array) (v : float) =
  (* first bound >= v, or the overflow slot; typed, so each step is a
     float comparison, not a call to the polymorphic [compare] *)
  let i = ref 0 in
  while !i < Array.length bounds && not (v <= bounds.(!i)) do incr i done;
  !i

(* Counts of the unit up to 2^62 in magnitude fit an OCaml int. *)
let countable = 4e18

let[@inline] observe h v =
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index h.h_bounds v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  let units = v *. h.h_scale in
  if Float.abs units < countable then
    ignore
      (Atomic.fetch_and_add h.h_sum
         (Float.to_int (if units >= 0. then units +. 0.5 else units -. 0.5)))
  else begin
    let added = ref false in
    while not !added do
      let cur = Atomic.get h.h_rest in
      added := Atomic.compare_and_set h.h_rest cur (cur +. v)
    done
  end

let sum h = (float_of_int (Atomic.get h.h_sum) /. h.h_scale) +. Atomic.get h.h_rest

let time h f =
  let t0 = !(h.h_clock) () in
  Fun.protect ~finally:(fun () -> observe h (!(h.h_clock) () -. t0)) f

type histogram_snapshot = {
  buckets : (float * int) list;
  count : int;
  sum : float;
}

let histogram_snapshot h =
  let acc = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i bound ->
           acc := !acc + Atomic.get h.h_counts.(i);
           (bound, !acc))
         h.h_bounds)
  in
  { buckets; count = Atomic.get h.h_count; sum = sum h }

(* Windowed views: a histogram child accumulates forever, so a window is
   the pointwise difference of two snapshots of the same child. *)
let diff_histogram_snapshot ~before after =
  if List.length before.buckets <> List.length after.buckets then
    invalid_arg "Metrics.diff_histogram_snapshot: different bucket layouts";
  let buckets =
    List.map2
      (fun (b0, c0) (b1, c1) ->
        if b0 <> b1 then
          invalid_arg "Metrics.diff_histogram_snapshot: different bucket layouts";
        (b1, max 0 (c1 - c0)))
      before.buckets after.buckets
  in
  { buckets;
    count = max 0 (after.count - before.count);
    sum = after.sum -. before.sum }

let snapshot_quantile snap q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Metrics.snapshot_quantile: q must be in [0, 1]";
  if snap.count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int snap.count in
    (* walk the cumulative buckets; interpolate linearly inside the
       first bucket whose cumulative count reaches the rank. A rank that
       lands in the +Inf overflow bucket reports the last finite bound:
       the histogram carries no upper estimate beyond it. *)
    let rec interp lower_bound lower_cum = function
      | [] -> lower_bound
      | (bound, cum) :: rest ->
        if float_of_int cum >= rank then
          if cum = lower_cum then bound
          else
            let frac =
              (rank -. float_of_int lower_cum)
              /. float_of_int (cum - lower_cum)
            in
            lower_bound +. ((bound -. lower_bound) *. max 0. (min 1. frac))
        else interp bound cum rest
    in
    interp 0. 0 snap.buckets
  end

(* ---------- escaping ---------- *)

let escape_with specials s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match List.assoc_opt c specials with
      | Some repl -> Buffer.add_string buf repl
      | None -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value =
  escape_with [ ('\\', "\\\\"); ('"', "\\\""); ('\n', "\\n") ]

let escape_help = escape_with [ ('\\', "\\\\"); ('\n', "\\n") ]

(* ---------- export ---------- *)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let sorted_families t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
  |> List.sort (fun a b -> compare a.f_name b.f_name)

let sorted_children f =
  Hashtbl.fold (fun _ lc acc -> lc :: acc) f.f_children []
  |> List.sort (fun (la, _) (lb, _) -> compare la lb)

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun f ->
      if f.f_help <> "" then line "# HELP %s %s" f.f_name (escape_help f.f_help);
      line "# TYPE %s %s" f.f_name (type_name f.f_type);
      List.iter
        (fun (labels, child) ->
          match child with
          | Counter c -> line "%s%s %d" f.f_name (prom_labels labels) (Atomic.get c.c_value)
          | Gauge g -> line "%s%s %s" f.f_name (prom_labels labels) (float_str (Afloat.get g.g_value))
          | Histogram h ->
              let snap = histogram_snapshot h in
              List.iter
                (fun (bound, cum) ->
                  line "%s_bucket%s %d" f.f_name
                    (prom_labels ~extra:("le", float_str bound) labels) cum)
                snap.buckets;
              line "%s_bucket%s %d" f.f_name
                (prom_labels ~extra:("le", "+Inf") labels) snap.count;
              line "%s_sum%s %s" f.f_name (prom_labels labels) (float_str snap.sum);
              line "%s_count%s %d" f.f_name (prom_labels labels) snap.count)
        (sorted_children f))
    (sorted_families t);
  Buffer.contents buf

let to_json t =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)
  in
  let child_json (labels, child) =
    let labels = ("labels", labels_json labels) in
    match child with
    | Counter c -> Json.Obj [ labels; ("value", Json.Int (Atomic.get c.c_value)) ]
    | Gauge g -> Json.Obj [ labels; ("value", Json.Float (Afloat.get g.g_value)) ]
    | Histogram h ->
      let snap = histogram_snapshot h in
      let bucket le count = Json.Obj [ ("le", le); ("count", Json.Int count) ] in
      Json.Obj
        [ labels;
          ("count", Json.Int snap.count);
          ("sum", Json.Float snap.sum);
          ( "buckets",
            Json.List
              (List.map (fun (bound, cum) -> bucket (Json.Float bound) cum) snap.buckets
              @ [ bucket (Json.String "+Inf") snap.count ]) ) ]
  in
  Json.Obj
    [ ( "metrics",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [ ("name", Json.String f.f_name);
                   ("type", Json.String (type_name f.f_type));
                   ("help", Json.String f.f_help);
                   ("values", Json.List (List.map child_json (sorted_children f))) ])
             (sorted_families t)) ) ]
