type t = {
  name : string;
  schema : string;
  version : int;
  body : Obs_json.t -> (unit, string) result;
}

let v ~name schema body =
  let version =
    match String.rindex_opt schema '/' with
    | Some i ->
      int_of_string_opt
        (String.sub schema (i + 1) (String.length schema - i - 1))
    | None -> None
  in
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

type field = Int | Num | Str | Bool

let fields kind names j =
  let ok = function
    | Some (Obs_json.Int _) -> kind = Int || kind = Num
    | Some (Obs_json.Float _) -> kind = Num
    | Some (Obs_json.Str _) -> kind = Str
    | Some (Obs_json.Bool _) -> kind = Bool
    | _ -> false
  in
  match List.find_opt (fun n -> not (ok (Obs_json.member n j))) names with
  | None -> Ok ()
  | Some n ->
    let what =
      match kind with
      | Int -> "integer"
      | Num -> "number"
      | Str -> "string"
      | Bool -> "boolean"
    in
    Error (Printf.sprintf "missing %s field %S" what n)

let each name check j =
  match Obs_json.member name j with
  | Some (Obs_json.List xs) ->
    List.fold_left
      (fun acc x ->
        Result.bind acc (fun () ->
            Result.map_error (Printf.sprintf "%s: %s" name) (check x)))
      (Ok ()) xs
  | _ -> Error (Printf.sprintf "missing list field %S" name)

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
