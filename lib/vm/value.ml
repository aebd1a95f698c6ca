(** Runtime values and heap objects for the simulating interpreter. *)

module Ir = Nullelim_ir.Ir

type value =
  | Vint of int
  | Vfloat of float
  | Vref of heapref
  | Vundef (** reading this is a simulation error (definite-assignment) *)

and heapref = Null | Obj of obj | Arr of arr

and obj = {
  o_cls : Ir.cls;
  mutable o_offsets : int array;
      (** field byte offset of each slot, shared by every object of the
          class; replaced, never written, when a store adds an offset *)
  mutable o_slots : value array; (** [o_slots.(k)] is the field at [o_offsets.(k)] *)
}

and arr = { a_kind : Ir.kind; a_elems : value array }

let default_of_kind = function
  | Ir.Kint -> Vint 0
  | Ir.Kfloat -> Vfloat 0.
  | Ir.Kref -> Vref Null

(** Garbage produced by a non-trapping read through a null pointer (the
    zero page reads as zeroes). *)
let null_page_garbage = Vint 0

let rec all_fields (classes : (string, Ir.cls) Hashtbl.t) (c : Ir.cls) :
    Ir.field list =
  let inherited =
    match c.csuper with
    | Some s -> (
      match Hashtbl.find_opt classes s with
      | Some sc -> all_fields classes sc
      | None -> [])
    | None -> []
  in
  inherited @ c.cfields

type layout = { l_cls : Ir.cls; l_offsets : int array; l_init : value array }

(* One slot per distinct offset, in field order; a redeclared offset
   keeps its slot and takes the last default.  Offsets are sparse (a
   field may sit at 512 KiB), so they are searched, not indexed. *)
let layout classes (c : Ir.cls) : layout =
  let offsets = ref [] and init = Hashtbl.create 8 in
  List.iter
    (fun (fd : Ir.field) ->
      if not (Hashtbl.mem init fd.foffset) then offsets := fd.foffset :: !offsets;
      Hashtbl.replace init fd.foffset (default_of_kind fd.fkind))
    (all_fields classes c);
  let l_offsets = Array.of_list (List.rev !offsets) in
  { l_cls = c; l_offsets; l_init = Array.map (Hashtbl.find init) l_offsets }

let instantiate (l : layout) : obj =
  { o_cls = l.l_cls; o_offsets = l.l_offsets; o_slots = Array.copy l.l_init }

let new_object classes c = instantiate (layout classes c)

let slot_of (o : obj) offset =
  let offs = o.o_offsets in
  let n = Array.length offs in
  let k = ref 0 in
  while !k < n && offs.(!k) <> offset do incr k done;
  if !k = n then -1 else !k

let set_field (o : obj) (fd : Ir.field) v =
  match slot_of o fd.foffset with
  | -1 ->
    o.o_offsets <- Array.append o.o_offsets [| fd.foffset |];
    o.o_slots <- Array.append o.o_slots [| v |]
  | k -> o.o_slots.(k) <- v

let new_array kind len : arr =
  { a_kind = kind; a_elems = Array.make len (default_of_kind kind) }

let pp ppf = function
  | Vint n -> Fmt.pf ppf "%d" n
  | Vfloat x -> Fmt.pf ppf "%g" x
  | Vref Null -> Fmt.string ppf "null"
  | Vref (Obj o) -> Fmt.pf ppf "<%s>" o.o_cls.cname
  | Vref (Arr a) -> Fmt.pf ppf "<array[%d]>" (Array.length a.a_elems)
  | Vundef -> Fmt.string ppf "<undef>"

(** Deep copy of a value for differential testing: runs that mutate
    their argument objects/arrays must not be visible to later runs.
    Aliasing {e within} one argument list is preserved (the same object
    passed twice stays the same object in the copy). *)
let deep_copy_all (vs : value list) : value list =
  let memo : (Obj.t * heapref) list ref = ref [] in
  let rec copy_ref (r : heapref) : heapref =
    match r with
    | Null -> Null
    | Obj o -> (
      match List.assq_opt (Obj.repr o) !memo with
      | Some r' -> r'
      | None ->
        let o' = { o with o_slots = Array.copy o.o_slots } in
        memo := (Obj.repr o, Obj o') :: !memo;
        Array.iteri (fun i v -> o'.o_slots.(i) <- copy_value v) o'.o_slots;
        Obj o')
    | Arr a -> (
      match List.assq_opt (Obj.repr a) !memo with
      | Some r' -> r'
      | None ->
        let a' = { a_kind = a.a_kind; a_elems = Array.copy a.a_elems } in
        memo := (Obj.repr a, Arr a') :: !memo;
        Array.iteri (fun i v -> a'.a_elems.(i) <- copy_value v) a'.a_elems;
        Arr a')
  and copy_value = function
    | Vref r -> Vref (copy_ref r)
    | (Vint _ | Vfloat _ | Vundef) as v -> v
  in
  List.map copy_value vs
