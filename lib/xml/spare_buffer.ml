(* One spare [Buffer.t] per printer, reused from print to print.

   The slot is an [Atomic]: [take] swaps the spare out (leaving the
   [none] sentinel), so two concurrent prints never share a buffer; the
   one that finds the slot empty makes its own. It cannot be
   [Domain.DLS]: systhreads share their domain's slot. A buffer that
   grew past [max_kept] bytes is dropped rather than kept. *)

type t = Buffer.t Atomic.t

let none = Buffer.create 1
let max_kept = 64 * 1024

let create () : t = Atomic.make none

let take (t : t) =
  let b = Atomic.exchange t none in
  if b == none then Buffer.create 256
  else begin
    Buffer.clear b;
    b
  end

let contents (t : t) b =
  let s = Buffer.contents b in
  if Buffer.length b <= max_kept then Atomic.set t b;
  s
