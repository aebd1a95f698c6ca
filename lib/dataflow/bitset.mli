(** Fixed-universe bit sets for data-flow analysis.

    Every set carries its universe size, so {!complement} is total and
    {!full} is representable.  The binary operations require both
    operands to share a universe and raise [Invalid_argument] otherwise.

    Four API layers:
    - functional operations ({!union}, {!inter}, {!diff}, …) return
      fresh sets;
    - [_mut] variants mutate single bits in place, for building sets
      inside block-local loops;
    - [_into] variants are destructive word-level kernels — the
      data-flow solver's meet-over-edges uses them to run without
      allocating intermediate sets.  All [_into] kernels tolerate
      aliased arguments ([dst == src]);
    - {!rows} hold many sets in one flat array: the solver's fact
      storage, read and written a row at a time.

    {!iter} and {!fold} scan whole words (skipping zero words) rather
    than probing every index. *)

type t

val empty : int -> t
(** [empty size] is the empty set over a universe of [size] elements. *)

val full : int -> t
(** [full size] contains every element of the universe. *)

val of_list : int -> int list -> t
val copy : t -> t

val mem : int -> t -> bool

val add_mut : t -> int -> unit
val remove_mut : t -> int -> unit
val clear_mut : t -> unit

val copy_into : t -> t -> unit
(** [copy_into dst src] sets [dst := src]. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] sets [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] sets [dst := dst ∖ src].  With [dst == src] the
    result is the empty set, as the algebra demands. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val equal : t -> t -> bool
val subset : t -> t -> bool
val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list

(** {2 Rows}

    [n] sets over one universe, back to back in one flat [int array]:
    the data-flow solver's fact storage, one row per block.  The row
    operations allocate nothing (except {!row}) and raise
    [Invalid_argument] when the set's universe is not the rows'. *)

type rows

val rows : int -> t -> rows
(** [rows n init] is [n] rows, each a copy of [init]. *)

val load_row : t -> rows -> int -> unit
(** [load_row dst rows r] sets [dst := row r]. *)

val store_row : rows -> int -> t -> unit
(** [store_row rows r src] sets [row r := src]. *)

val union_row_into : t -> rows -> int -> unit
(** [union_row_into dst rows r] sets [dst := dst ∪ row r]. *)

val diff_row_into : t -> rows -> int -> unit
(** [diff_row_into dst rows r] sets [dst := dst ∖ row r]. *)

val row_equal : rows -> int -> t -> bool
val row_mem : rows -> int -> int -> bool
(** [row_mem rows r i]: is [i] in row [r]? *)

val row : rows -> int -> t
(** A fresh copy of row [r]. *)
