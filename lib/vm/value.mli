(** Runtime values and heap objects for the simulating interpreter. *)

module Ir = Nullelim_ir.Ir

type value =
  | Vint of int
  | Vfloat of float
  | Vref of heapref
  | Vundef (** reading this is a simulation error (definite assignment) *)

and heapref = Null | Obj of obj | Arr of arr

and obj = {
  o_cls : Ir.cls;
  mutable o_offsets : int array;
      (** field byte offset of each slot, shared by every object of the
          class; replaced, never written, when a store adds an offset *)
  mutable o_slots : value array; (** [o_slots.(k)] is the field at [o_offsets.(k)] *)
}

and arr = { a_kind : Ir.kind; a_elems : value array }

val null_page_garbage : value
(** What a non-trapping read through a null pointer returns. *)

type layout
(** A class's object layout: one slot per distinct field offset of the
    class and its superclasses, with each slot's default value. *)

val layout : (string, Ir.cls) Hashtbl.t -> Ir.cls -> layout
val instantiate : layout -> obj
(** A fresh object with every field at its default. *)

val new_object : (string, Ir.cls) Hashtbl.t -> Ir.cls -> obj
(** [instantiate (layout classes c)]. *)

val slot_of : obj -> int -> int
(** [slot_of o offset] is the index in [o.o_slots] of the field at byte
    [offset], or [-1] when the object has no such field. *)

val set_field : obj -> Ir.field -> value -> unit
(** Store a field.  A store to an offset the object lacks adds a slot
    for it, so a later read of that offset sees the value. *)

val new_array : Ir.kind -> int -> arr

val deep_copy_all : value list -> value list
(** Deep copy for differential testing: runs that mutate argument
    objects/arrays must not leak state into later runs.  Aliasing within
    the list is preserved. *)

val pp : value Fmt.t
