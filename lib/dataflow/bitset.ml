(** Fixed-universe bit sets for data-flow analysis.

    A set carries its universe size so that complement is well defined.
    The original operations are functional (they return fresh sets); the
    [_mut] and [_into] variants mutate their first argument in place and,
    with the flat {!rows}, are what the data-flow solver's hot loops
    use — a solver visit allocates nothing.  Iteration scans
    whole words and skips zero words instead of probing every index. *)

type t = { size : int; bits : int array }

let word_bits = Sys.int_size
let nwords size = (size + word_bits - 1) / word_bits

let empty size = { size; bits = Array.make (nwords size) 0 }

let full size =
  let w = nwords size in
  let bits = Array.make w (-1) in
  (* mask off the tail so equal-looking sets are structurally equal *)
  let rem = size mod word_bits in
  if w > 0 && rem <> 0 then bits.(w - 1) <- (1 lsl rem) - 1;
  { size; bits }

let copy s = { s with bits = Array.copy s.bits }

let check s i =
  if i < 0 || i >= s.size then invalid_arg "Bitset: index out of universe"

let mem i s =
  check s i;
  s.bits.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(* in-place variants for hot local loops *)
let add_mut s i =
  check s i;
  s.bits.(i / word_bits) <- s.bits.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove_mut s i =
  check s i;
  s.bits.(i / word_bits) <-
    s.bits.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let clear_mut s = Array.fill s.bits 0 (Array.length s.bits) 0

(* ------------------------------------------------------------------ *)
(* Destructive word-level kernels.  All tolerate [dst == src]: the     *)
(* word-wise updates are still mathematically correct then (e.g.       *)
(* [diff_into s s] yields the empty set).                              *)
(* ------------------------------------------------------------------ *)

let check_pair a b =
  if a.size <> b.size then invalid_arg "Bitset: universe mismatch"

let copy_into dst src =
  check_pair dst src;
  let d = dst.bits and s = src.bits in
  for i = 0 to Array.length d - 1 do
    d.(i) <- s.(i)
  done

let union_into dst src =
  check_pair dst src;
  let d = dst.bits and s = src.bits in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) lor s.(i)
  done

let inter_into dst src =
  check_pair dst src;
  let d = dst.bits and s = src.bits in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) land s.(i)
  done

let diff_into dst src =
  check_pair dst src;
  let d = dst.bits and s = src.bits in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) land lnot s.(i)
  done

(* Rows: set [r] is words [r * w .. r * w + w - 1] of one array.
   Loops, not [Array.blit]: rows are a few words long. *)

type rows = { rsize : int; w : int; words : int array }

let rows n init =
  let w = Array.length init.bits in
  let words = Array.make (n * w) 0 in
  for r = 0 to n - 1 do
    for i = 0 to w - 1 do
      words.((r * w) + i) <- init.bits.(i)
    done
  done;
  { rsize = init.size; w; words }

let check_row rows s =
  if rows.rsize <> s.size then invalid_arg "Bitset: universe mismatch"

let load_row dst rows r =
  check_row rows dst;
  let d = dst.bits and o = r * rows.w in
  for i = 0 to rows.w - 1 do
    d.(i) <- rows.words.(o + i)
  done

let store_row rows r src =
  check_row rows src;
  let s = src.bits and o = r * rows.w in
  for i = 0 to rows.w - 1 do
    rows.words.(o + i) <- s.(i)
  done

let union_row_into dst rows r =
  check_row rows dst;
  let d = dst.bits and o = r * rows.w in
  for i = 0 to rows.w - 1 do
    d.(i) <- d.(i) lor rows.words.(o + i)
  done

let diff_row_into dst rows r =
  check_row rows dst;
  let d = dst.bits and o = r * rows.w in
  for i = 0 to rows.w - 1 do
    d.(i) <- d.(i) land lnot rows.words.(o + i)
  done

let row_equal rows r s =
  check_row rows s;
  let o = r * rows.w and i = ref 0 in
  while !i < rows.w && rows.words.(o + !i) = s.bits.(!i) do
    incr i
  done;
  !i = rows.w

let row_mem rows r i =
  if i < 0 || i >= rows.rsize then invalid_arg "Bitset: index out of universe";
  rows.words.((r * rows.w) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

let row rows r =
  let s = empty rows.rsize in
  load_row s rows r;
  s

let lift2 op a b =
  check_pair a b;
  { size = a.size; bits = Array.init (Array.length a.bits) (fun i -> op a.bits.(i) b.bits.(i)) }

let union = lift2 ( lor )
let inter = lift2 ( land )
let diff = lift2 (fun x y -> x land lnot y)

let complement s = diff (full s.size) s

let equal a b = a.size = b.size && a.bits = b.bits

let subset a b =
  check_pair a b;
  let rec go i =
    i >= Array.length a.bits
    || (a.bits.(i) land lnot b.bits.(i) = 0 && go (i + 1))
  in
  go 0

let cardinal s =
  let pop w =
    let rec go w n = if w = 0 then n else go (w land (w - 1)) (n + 1) in
    go w 0
  in
  Array.fold_left (fun n w -> n + pop w) 0 s.bits

(* number of trailing zeros of a non-zero word (branching on halves) *)
let ntz w =
  let w = ref (w land -w) (* isolate lowest set bit *) and n = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin n := !n + 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

let iter g s =
  let bits = s.bits in
  for wi = 0 to Array.length bits - 1 do
    let w = ref bits.(wi) in
    if !w <> 0 then begin
      let base = wi * word_bits in
      while !w <> 0 do
        g (base + ntz !w);
        w := !w land (!w - 1)
      done
    end
  done

let fold g s acc =
  let acc = ref acc in
  iter (fun i -> acc := g i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list size l =
  let s = empty size in
  List.iter (fun i -> add_mut s i) l;
  s
