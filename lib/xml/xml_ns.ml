(* XML namespace resolution (the mechanism the paper uses to mark
   intensional call nodes: elements in the
   http://www.activexml.com/ns/int namespace, Section 7).

   An environment is the list of xmlns declarations in force, innermost
   first, one per bound prefix. Names are never split: a prefix is
   compared in place against the declarations, so resolving a name, or
   extending the environment at an element without declarations,
   allocates nothing. A lookup scans the list, so the number of
   prefixes bound at once is bounded ([max_bindings]): without a bound,
   nested distinct declarations would make decoding quadratic.

   Every element of every decoded document passes through [extend] and
   [name_is], so the byte scans below are [while] loops over
   [String.unsafe_get] inside checked bounds, and nothing here calls
   [Stdlib.max]: it is compiled inside Stdlib at a polymorphic type, so
   it compares through a C call even where it is inlined. The helpers
   are closed top-level functions: a local recursive function capturing
   its arguments would allocate a closure per call. *)

type env = Xml_tree.attribute list

let empty_env : env = []

exception Too_many_bindings

let max_bindings = 64

let prefix_end_sub s off stop =
  let i = ref off in
  while !i < stop && String.unsafe_get s !i <> ':' do incr i done;
  if !i = stop then -1 else !i

let prefix_end name = prefix_end_sub name 0 (String.length name)

(* Do [a.[i ..]] and [b.[j ..]] agree on [len] bytes? Both are long
   enough. *)
let same_bytes a i b j len =
  let k = ref 0 in
  while !k < len && String.unsafe_get a (i + !k) = String.unsafe_get b (j + !k) do incr k done;
  !k >= len

(* [xmlns] declares the default namespace, [xmlns:p] the prefix p (an
   empty p the default namespace too): is [n.[off .. stop - 1]] such a
   name? *)
let is_declaration_sub n off stop =
  stop - off >= 5
  && String.unsafe_get n off = 'x'
  && String.unsafe_get n (off + 1) = 'm'
  && String.unsafe_get n (off + 2) = 'l'
  && String.unsafe_get n (off + 3) = 'n'
  && String.unsafe_get n (off + 4) = 's'
  && (stop - off = 5 || String.unsafe_get n (off + 5) = ':')

let is_declaration (a : Xml_tree.attribute) = is_declaration_sub a.name 0 (String.length a.name)

(* Length of the prefix a declaration binds: [a.name.[6 ..]]. *)
let bound_len (a : Xml_tree.attribute) =
  let n = String.length a.name in
  if n <= 6 then 0 else n - 6

(* Does declaration [a] bind the prefix [s.[off .. off + len - 1]]
   ([len] = 0: the default namespace)? *)
let binds (a : Xml_tree.attribute) s off len =
  bound_len a = len && same_bytes a.name 6 s off len

(* The declarations from the binding of that prefix on, [] if unbound. *)
let rec find (env : env) s off len =
  match env with
  | [] -> env
  | a :: rest -> if binds a s off len then env else find rest s off len

let rec unbind (env : env) s off len =
  match env with
  | [] -> env
  | a :: rest -> if binds a s off len then rest else a :: unbind rest s off len

(* Put declaration [a] in force: nothing changes when its prefix is
   already bound to the same URI (as on nested calls, which each
   declare int), and it replaces the prefix's outer binding otherwise. *)
let declare env (a : Xml_tree.attribute) =
  let len = bound_len a in
  match find env a.name 6 len with
  | b :: _ when String.equal b.value a.value -> env
  | [] -> if List.length env >= max_bindings then raise Too_many_bindings else a :: env
  | _ -> a :: unbind env a.name 6 len

(* The declarations of [name], the prefix of which ends at [c], from
   its binding on. *)
let find_prefix env name c = find env name 0 (if c < 0 then 0 else c)

(* Extend [env] with the xmlns declarations among [attrs], a later
   attribute shadowing an earlier one; [env] itself when there are
   none. *)
let rec extend_attrs env (attrs : Xml_tree.attribute list) =
  match attrs with
  | [] -> env
  | a :: rest -> extend_attrs (if is_declaration a then declare env a else env) rest

let extend env (element : Xml_tree.element) = extend_attrs env element.attrs

(* The reader's current attribute, read in place: a declaration that
   binds its prefix to the URI already bound changes nothing and copies
   nothing; [known] is put in force itself when the declaration is
   it. *)
let declare_attribute ~known env r =
  let s = Xml_parser.input r in
  let off = Xml_parser.name_start r and stop = Xml_parser.name_end r in
  if not (is_declaration_sub s off stop) then env
  else begin
    let len = if stop - off <= 6 then 0 else stop - off - 6 in
    match find env s (off + 6) len with
    | b :: _ when Xml_parser.value_equals r b.value -> env
    | _ ->
      let (k : Xml_tree.attribute) = known in
      let a =
        if String.length k.name = stop - off
           && same_bytes s off k.name 0 (stop - off)
           && Xml_parser.value_equals r k.value
        then k
        else { name = String.sub s off (stop - off); value = Xml_parser.value r }
      in
      declare env a
  end

let local_name name c = if c < 0 then name else String.sub name (c + 1) (String.length name - c - 1)

(* Namespace URI and local name of an element under [env], the
   environment in force at the element (its own declarations included,
   as [extend] and [iter_elements] give it). Elements without a prefix
   take the default namespace (if any). *)
let expanded_name env (element : Xml_tree.element) =
  let c = prefix_end element.name in
  let uri = match find_prefix env element.name c with [] -> None | a :: _ -> Some a.value in
  (uri, local_name element.name c)

(* Walk the tree, calling [f env element] on every element with the
   namespace environment in force at that element. *)
let iter_elements f tree =
  let rec go env (node : Xml_tree.t) =
    match node with
    | Element e ->
      let env = extend env e in
      f env e;
      List.iter (go env) e.children
    | Text _ | Cdata _ | Comment _ | Pi _ -> ()
  in
  go empty_env tree

(* The local name is compared first, in place: it tells most names
   apart without a look at the environment. *)
let name_is_sub env ~uri ~local s off stop c =
  let n = String.length local in
  let l = if c < 0 then off else c + 1 in
  stop - l = n
  && same_bytes s l local 0 n
  &&
  match find env s off (if c < 0 then 0 else c - off) with
  | [] -> false
  | a :: _ -> String.equal a.value uri

let name_is env ~uri ~local name c = name_is_sub env ~uri ~local name 0 (String.length name) c

let element_is env ~uri ~local (element : Xml_tree.element) =
  name_is env ~uri ~local element.name (prefix_end element.name)
