external now_ns : unit -> (int64[@unboxed])
  = "ne_clock_now_ns_byte" "ne_clock_now_ns"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9
