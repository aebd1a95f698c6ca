(* See ctx.mli.  The ambient slot is one Domain.DLS ref per domain; a
   context is four immediate ints, so reading or restoring it never
   allocates. *)

type t = {
  cx_tenant : int;
  cx_request : int;
  cx_span : int;
  cx_parent : int;
}

let none = { cx_tenant = -1; cx_request = -1; cx_span = -1; cx_parent = -1 }

let is_none c = c.cx_span < 0 && c.cx_request < 0 && c.cx_tenant < 0

(* Span ids are process-unique; 0 is never minted so a zeroed ring slot
   cannot masquerade as a real span. *)
let next_span = Atomic.make 1

let mint ?(tenant = -1) ?(request = -1) () =
  {
    cx_tenant = tenant;
    cx_request = request;
    cx_span = Atomic.fetch_and_add next_span 1;
    cx_parent = -1;
  }

let key : t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref none)

let current () = !(Domain.DLS.get key)

let with_current c f =
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := c;
  Fun.protect ~finally:(fun () -> slot := saved) f

let tenant_label t = if t < 0 then "none" else string_of_int t
