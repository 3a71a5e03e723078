(* One spare [Buffer.t] per printer, reused from print to print.

   The slot is an [Atomic]: [take] swaps the spare out (leaving the
   [none] sentinel), so two concurrent prints never share a buffer; the
   one that finds the slot empty makes its own. It cannot be
   [Domain.DLS]: systhreads share their domain's slot.

   The memory a slot holds is bounded: a buffer whose contents grew past
   [max_kept] bytes (1 MiB) is dropped rather than kept. A buffer
   doubles its capacity only when it is full, so a kept buffer's
   capacity is below 2 * [max_kept]: a slot holds less than 2 MiB. Up to
   that size a print reuses the capacity the previous one grew, and
   allocates its output string alone. *)

type t = Buffer.t Atomic.t

let none = Buffer.create 1
let max_kept = 1024 * 1024

let create () : t = Atomic.make none

let take (t : t) =
  let b = Atomic.exchange t none in
  if b == none then Buffer.create 256
  else begin
    Buffer.clear b;
    b
  end

let release (t : t) b = if Buffer.length b <= max_kept then Atomic.set t b

let contents t b =
  let s = Buffer.contents b in
  release t b;
  s
