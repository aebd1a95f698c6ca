(* A check error is (path, message); the path grows outward as the
   error leaves nested objects and lists ("rows[3].offered"). *)
type error = string * string

type 'a kind = {
  emit : 'a -> Obs_json.t;
  check : Obs_json.t -> (unit, error) result;
}

type 'r field = {
  names : string list;
  write : 'r -> (string * Obs_json.t) list;
  check_in : Obs_json.t -> (unit, error) result;  (* the enclosing object *)
}

let join seg = function
  | "" -> seg
  | p when p.[0] = '[' -> seg ^ p
  | p -> seg ^ "." ^ p

let at seg = Result.map_error (fun (p, m) -> (join seg p, m))

let custom what emit ok =
  {
    emit;
    check = (fun j -> if ok j then Ok () else Error ("", "must be " ^ what));
  }

let int_where what p =
  custom what
    (fun i -> Obs_json.Int i)
    (function Obs_json.Int i -> p i | _ -> false)

let num_where what p =
  custom what
    (fun f -> Obs_json.Float f)
    (function
      | Obs_json.Int i -> p (float_of_int i)
      | Obs_json.Float f -> p f
      | _ -> false)

let int = int_where "an integer" (fun _ -> true)
let nat = int_where "an integer >= 0" (fun i -> i >= 0)
let num = num_where "a number" (fun _ -> true)

let str =
  custom "a string" (fun s -> Obs_json.Str s) (function
    | Obs_json.Str _ -> true
    | _ -> false)

let bool =
  custom "a boolean" (fun b -> Obs_json.Bool b) (function
    | Obs_json.Bool _ -> true
    | _ -> false)

let enum name all =
  let names = List.map name all in
  custom
    ("one of " ^ String.concat ", " names)
    (fun x -> Obs_json.Str (name x))
    (function Obs_json.Str s -> List.mem s names | _ -> false)

let nullable k =
  {
    emit = (function None -> Obs_json.Null | Some x -> k.emit x);
    check = (function Obs_json.Null -> Ok () | j -> k.check j);
  }

let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest -> Result.bind (f x) (fun () -> all_ok f rest)

let list ?(non_empty = false) k =
  {
    emit = (fun xs -> Obs_json.List (List.map k.emit xs));
    check =
      (function
      | Obs_json.List [] when non_empty -> Error ("", "must not be empty")
      | Obs_json.List xs ->
        all_ok
          (fun (i, x) -> at (Printf.sprintf "[%d]" i) (k.check x))
          (List.mapi (fun i x -> (i, x)) xs)
      | _ -> Error ("", "must be a list"));
  }

let record fields x = List.concat_map (fun f -> f.write x) fields
let check_fields fields o = all_ok (fun f -> f.check_in o) fields

let nested fields =
  {
    emit = (fun x -> Obs_json.Obj (record fields x));
    check =
      (function
      | Obs_json.Obj _ as o -> check_fields fields o
      | _ -> Error ("", "must be an object"));
  }

let field name k get =
  {
    names = [ name ];
    write = (fun r -> [ (name, k.emit (get r)) ]);
    check_in =
      (fun o ->
        match Obs_json.member name o with
        | Some j -> at name (k.check j)
        | None -> Error (name, "missing"));
  }

let group get fields =
  let names = List.concat_map (fun f -> f.names) fields in
  {
    names;
    write = (fun r -> match get r with Some x -> record fields x | None -> []);
    check_in =
      (fun o ->
        if List.for_all (fun n -> Obs_json.member n o = None) names then Ok ()
        else check_fields fields o);
  }

let opt name k get = group get [ field name k Fun.id ]

let check fields j =
  Result.map_error (fun (p, m) -> p ^ ": " ^ m) (check_fields fields j)

type t = {
  name : string;
  schema : string;
  version : int;
  body : Obs_json.t -> (unit, string) result;
}

let v ~name ?(rules = fun _ -> Ok ()) schema fields =
  let version =
    match String.rindex_opt schema '/' with
    | Some i ->
      int_of_string_opt
        (String.sub schema (i + 1) (String.length schema - i - 1))
    | None -> None
  in
  let body j = Result.bind (check fields j) (fun () -> rules j) in
  match version with
  | Some version -> { name; schema; version; body }
  | None -> invalid_arg ("Doc.v: schema without a /N version: " ^ schema)

let name d = d.name
let schema d = d.schema
let version d = d.version

let obj d fields =
  Obs_json.Obj
    (("schema", Obs_json.Str d.schema)
    :: ("schema_version", Obs_json.Int d.version)
    :: fields)

let validate d j =
  match (Obs_json.member "schema" j, Obs_json.member "schema_version" j) with
  | Some (Obs_json.Str s), _ when s <> d.schema ->
    Error (Printf.sprintf "unknown schema %S (want %S)" s d.schema)
  | Some (Obs_json.Str _), Some (Obs_json.Int v) when v = d.version -> d.body j
  | Some (Obs_json.Str _), Some (Obs_json.Int v) ->
    Error
      (Printf.sprintf "unsupported schema_version %d (want %d)" v d.version)
  | Some (Obs_json.Str _), Some _ ->
    Error "field \"schema_version\" must be an integer"
  | Some (Obs_json.Str _), None -> Error "missing field \"schema_version\""
  | Some _, _ -> Error "field \"schema\" must be a string"
  | None, _ -> Error "missing field \"schema\""

let find d j =
  match Obs_json.member "schema" j with
  | Some (Obs_json.Str s) when s = d.schema -> j
  | _ -> ( match Obs_json.member d.name j with Some m -> m | None -> j)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s ->
    Result.map_error
      (Printf.sprintf "%s: JSON parse error: %s" path)
      (Obs_json.of_string s)

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Obs_json.to_string j);
      Out_channel.output_char oc '\n')

let checked d j k =
  match validate d j with
  | Ok () -> k ()
  | Error e ->
    Error
      (Printf.sprintf "internal error: %s document fails its own schema: %s"
         d.schema e)

let write d path j = checked d j (fun () -> Ok (write_json path j))

let container = "nullelim-bench/1"

let merge d path j =
  checked d j (fun () ->
      let existing =
        if Sys.file_exists path then read path
        else Ok (Obs_json.Obj [ ("schema", Obs_json.Str container) ])
      in
      Result.map
        (fun c ->
          let others =
            match c with
            | Obs_json.Obj fields ->
              List.filter (fun (k, _) -> k <> d.name) fields
            | _ -> []
          in
          write_json path (Obs_json.Obj (others @ [ (d.name, j) ])))
        existing)
