(* The XML node tree used as carrier syntax for intensional documents
   (Section 7 of the paper). Names are kept as written ("prefix:local");
   namespace resolution is a separate pass in [Xml_ns]. *)

type attribute = { name : string; value : string }

type t =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of { target : string; content : string }

and element = { name : string; attrs : attribute list; children : t list }

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s
let cdata s = Cdata s
let comment s = Comment s
let pi target content = Pi { target; content }
let attr name value = { name; value }

let attr_value element name =
  List.find_map
    (fun (a : attribute) -> if String.equal a.name name then Some a.value else None)
    element.attrs

(* Direct children that are elements. *)
let child_elements element =
  List.filter_map
    (function Element e -> Some e | Text _ | Cdata _ | Comment _ | Pi _ -> None)
    element.children

let child_element element name =
  List.find_opt (fun e -> String.equal e.name name) (child_elements element)

(* Concatenated character data of the direct children. *)
let text_content element =
  element.children
  |> List.filter_map (function
       | Text s | Cdata s -> Some s
       | Element _ | Comment _ | Pi _ -> None)
  |> String.concat ""

let is_whitespace s =
  let i = ref 0 in
  while !i < String.length s && Byte_class.is Byte_class.space (String.unsafe_get s !i) do
    incr i
  done;
  !i = String.length s

(* The traversals below all use explicit work lists rather than
   recursion: intensional documents can nest arbitrarily deep (a chain
   of singleton elements 100k levels down is a legitimate stress input)
   and one stack frame per level overflows long before the heap runs
   out. *)

let keep_in_layout = function
  | Text s -> not (is_whitespace s)
  | Comment _ | Pi _ -> false
  | Element _ | Cdata _ -> true

(* Remove whitespace-only text nodes and comments/PIs, recursively;
   documents compare structurally after this normalization. *)
let strip_layout node =
  (* a frame is an element whose kept children are being rebuilt;
     [todo] are children still to process, [built] the processed ones
     in reverse *)
  let rec go stack todo built =
    match todo with
    | node :: todo -> (
      match node with
      | Element e ->
        let kept = List.filter keep_in_layout e.children in
        go ((e, todo, built) :: stack) kept []
      | Text _ | Cdata _ | Comment _ | Pi _ ->
        go stack todo (node :: built))
    | [] -> (
      match stack with
      | (e, todo', built') :: stack ->
        let rebuilt = Element { e with children = List.rev built } in
        go stack todo' (rebuilt :: built')
      | [] -> (
        match built with
        | [ node ] -> node
        | _ -> assert false))
  in
  go [] [ node ] []

let equal n1 n2 =
  let shallow_equal n1 n2 =
    match n1, n2 with
    | Element e1, Element e2 ->
      String.equal e1.name e2.name
      (* the same attributes in any order, repeated names included *)
      && List.sort compare e1.attrs = List.sort compare e2.attrs
      && List.length e1.children = List.length e2.children
    | Text s1, Text s2 | Cdata s1, Cdata s2 | Comment s1, Comment s2 ->
      String.equal s1 s2
    | Pi p1, Pi p2 ->
      String.equal p1.target p2.target && String.equal p1.content p2.content
    | (Element _ | Text _ | Cdata _ | Comment _ | Pi _), _ -> false
  in
  let rec go = function
    | [] -> true
    | (n1, n2) :: rest ->
      shallow_equal n1 n2
      && (match n1, n2 with
          | Element e1, Element e2 ->
            go (List.rev_append (List.combine e1.children e2.children) rest)
          | _ -> go rest)
  in
  go [ (n1, n2) ]

let count_nodes node =
  let rec go acc = function
    | [] -> acc
    | Element e :: rest -> go (acc + 1) (List.rev_append e.children rest)
    | (Text _ | Cdata _ | Comment _ | Pi _) :: rest -> go (acc + 1) rest
  in
  go 0 [ node ]

let depth node =
  let rec go acc = function
    | [] -> acc
    | (d, Element e) :: rest ->
      go (max acc (d + 1)) (List.rev_append (List.map (fun c -> (d + 1, c)) e.children) rest)
    | (d, (Text _ | Cdata _ | Comment _ | Pi _)) :: rest -> go (max acc (d + 1)) rest
  in
  go 0 [ (0, node) ]

(* Fold over every node of the tree, prefix order. *)
let fold f acc node =
  let rec go acc = function
    | [] -> acc
    | node :: rest ->
      let acc = f acc node in
      (match node with
       | Element e -> go acc (e.children @ rest)
       | Text _ | Cdata _ | Comment _ | Pi _ -> go acc rest)
  in
  go acc [ node ]
