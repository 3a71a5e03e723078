(* The mutation fuzzer shared by the xml and axml suites: a document is
   damaged by a byte flip, a byte replaced by markup, a truncation, a
   slice spliced in elsewhere or cut out, or a markup fragment spliced
   in. *)

let fragments =
  [ "<"; ">"; "</"; "/>"; "&"; ";"; "&#"; "&#x"; "&amp;"; "&#99999999;";
    "&#-5;"; "&#xD800;"; "&#x10FFFF;"; "&#13;"; "<![CDATA["; "]]>"; "<!--";
    "-->"; "<?"; "?>"; "<!DOCTYPE d>"; "<!DOCTYPE"; "\""; "'"; "="; "\r";
    "\r\n"; "\n"; "\000"; "\xff"; " xmlns:int=\"" ^ Axml_peer.Syntax.axml_ns ^ "\"";
    " xmlns=\"" ^ Axml_peer.Syntax.axml_ns ^ "\""; "int:fun"; "int:params"; "int:param";
    " methodName=\"F\"" ]

let mutate (s : string) : string QCheck.Gen.t =
  let open QCheck.Gen in
  let n = String.length s in
  let at = int_bound n in
  let insert i piece = String.sub s 0 i ^ piece ^ String.sub s i (n - i) in
  if n = 0 then oneofl fragments
  else
    frequency
      [ (* a bit flip *)
        (2,
         map3
           (fun i b _ ->
             String.mapi
               (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
               s)
           (int_bound (n - 1)) (int_bound 7) unit);
        (* a byte replaced by markup *)
        (2,
         map2
           (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
           (int_bound (n - 1))
           (oneofl [ '<'; '>'; '&'; ';'; '"'; '\''; '/'; '!'; '?'; '['; ']';
                     '-'; '#'; 'x'; '\r'; '\n'; ':'; '='; ' '; '\000' ]));
        (* a truncation *)
        (1, map (fun i -> String.sub s 0 i) at);
        (* a slice of the input spliced in elsewhere, or cut out *)
        (2,
         map3
           (fun i len j ->
             let len = min len (n - i) in
             insert j (String.sub s i len))
           (int_bound (n - 1)) (int_bound 16) at);
        (1,
         map2
           (fun i len ->
             let len = min len (n - i) in
             String.sub s 0 i ^ String.sub s (i + len) (n - i - len))
           (int_bound (n - 1)) (int_bound 16));
        (* a markup fragment spliced in *)
        (2, map2 insert at (oneofl fragments)) ]

