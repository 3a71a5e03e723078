(* A minimal growable array (OCaml 5.1 has no stdlib Dynarray). Used by
   the on-the-fly product construction, where the number of states is not
   known in advance. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { data = Array.make 16 dummy; len = 0; dummy }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * Array.length v.data) v.dummy in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

(* Grow to at least [n] elements, filling new slots with the dummy —
   for vectors indexed by externally-allocated dense ids. *)
let ensure v n =
  if n > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while !cap < n do cap := 2 * !cap done;
    let bigger = Array.make !cap v.dummy in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  if n > v.len then begin
    Array.fill v.data v.len (n - v.len) v.dummy;
    v.len <- n
  end

let iteri f v =
  for i = 0 to v.len - 1 do f i v.data.(i) done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc v.data.(i) done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let to_array v = Array.sub v.data 0 v.len
