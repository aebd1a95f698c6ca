(* See export.mli.  The renderer works straight off the registry's
   {!Metrics.values} (not the JSON snapshot) so bucket counts can be
   accumulated into the cumulative form Prometheus requires without a
   JSON round-trip; [lint] closes the loop by checking any exposition
   text — ours or a server's — against the format rules the tests and
   the CI smoke rely on. *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

(* Prometheus metric-name charset; anything else becomes '_', and a
   leading digit gets a '_' prefix. *)
let sanitize_name (s : string) : string =
  if s = "" then "_"
  else begin
    let b = Buffer.create (String.length s + 1) in
    String.iteri
      (fun i c ->
        if i = 0 && not (is_name_start c) then begin
          Buffer.add_char b '_';
          if is_name_char c then Buffer.add_char b c
        end
        else Buffer.add_char b (if is_name_char c then c else '_'))
      s;
    Buffer.contents b
  end

(* Label values: backslash, double-quote and newline are escaped, per
   the exposition-format spec. *)
let escape_label_value (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels (labels : Metrics.labels) : string =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_name k)
               (escape_label_value v))
           labels)
    ^ "}"

let render_float (v : float) : string =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else
    let s = Printf.sprintf "%.12g" v in
    s

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_series (b : Buffer.t) name labels = function
  | Metrics.Vcounter v ->
    Buffer.add_string b
      (Printf.sprintf "%s%s %d\n" name (render_labels labels) v)
  | Metrics.Vgauge v ->
    Buffer.add_string b
      (Printf.sprintf "%s%s %s\n" name (render_labels labels)
         (render_float v))
  | Metrics.Vhistogram (buckets, counts, count, sum) ->
    (* the registry stores per-bucket counts; the exposition format
       wants cumulative-to-le, ending at le="+Inf" = _count *)
    let cum = ref 0 in
    Array.iteri
      (fun k le ->
        cum := !cum + counts.(k);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" name
             (render_labels (labels @ [ ("le", render_float le) ]))
             !cum))
      buckets;
    Buffer.add_string b
      (Printf.sprintf "%s_bucket%s %d\n" name
         (render_labels (labels @ [ ("le", "+Inf") ]))
         count);
    Buffer.add_string b
      (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
         (render_float sum));
    Buffer.add_string b
      (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) count)

let render (r : Metrics.t) : string =
  let values = Metrics.values r in
  let b = Buffer.create 4096 in
  let emit_family tname keep =
    (* one # TYPE header per family, series grouped beneath it *)
    let last = ref "" in
    List.iter
      (fun ((name, labels), v) ->
        if keep v then begin
          let name = sanitize_name name in
          if name <> !last then begin
            Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name tname);
            last := name
          end;
          render_series b name labels v
        end)
      values
  in
  emit_family "counter" (function Metrics.Vcounter _ -> true | _ -> false);
  (* a gauge never set to a number (NaN) has no sample to expose *)
  emit_family "gauge" (function
    | Metrics.Vgauge v -> not (Float.is_nan v)
    | _ -> false);
  emit_family "histogram" (function Metrics.Vhistogram _ -> true | _ -> false);
  Buffer.contents b

let content_type = "text/plain; version=0.0.4; charset=utf-8"

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

type parsed_line = {
  pl_name : string;
  pl_labels : (string * string) list;
  pl_value : float;
}

exception Bad of string

let parse_sample (line : string) : parsed_line =
  let n = String.length line in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do incr i done;
  if !i = 0 then bad "no metric name";
  if not (is_name_start line.[0]) then bad "name starts with %c" line.[0];
  let name = String.sub line 0 !i in
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let stop = ref false in
    while not !stop do
      if !i >= n then bad "unterminated label set";
      if line.[!i] = '}' then begin incr i; stop := true end
      else begin
        let k0 = !i in
        while !i < n && is_name_char line.[!i] do incr i done;
        if !i = k0 then bad "empty label name";
        let k = String.sub line k0 (!i - k0) in
        if !i >= n || line.[!i] <> '=' then bad "label %s: expected '='" k;
        incr i;
        if !i >= n || line.[!i] <> '"' then bad "label %s: expected '\"'" k;
        incr i;
        let vb = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= n then bad "label %s: unterminated value" k;
          (match line.[!i] with
          | '"' -> closed := true
          | '\\' ->
            if !i + 1 >= n then bad "label %s: dangling escape" k;
            (match line.[!i + 1] with
            | '\\' -> Buffer.add_char vb '\\'
            | '"' -> Buffer.add_char vb '"'
            | 'n' -> Buffer.add_char vb '\n'
            | c -> bad "label %s: bad escape \\%c" k c);
            incr i
          | c -> Buffer.add_char vb c);
          incr i
        done;
        labels := (k, Buffer.contents vb) :: !labels;
        if !i < n && line.[!i] = ',' then incr i
        else if !i >= n || line.[!i] <> '}' then
          bad "label %s: expected ',' or '}'" k
      end
    done
  end;
  if !i >= n || line.[!i] <> ' ' then bad "expected ' ' before value";
  incr i;
  let vs = String.sub line !i (n - !i) in
  let value =
    match String.trim vs with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | "NaN" -> Float.nan
    | s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> bad "unparseable value %S" s)
  in
  { pl_name = name; pl_labels = List.rev !labels; pl_value = value }

let lint (text : string) : (unit, string) result =
  let lines = String.split_on_char '\n' text in
  (* (histogram family, labels minus le) -> last cumulative count seen,
     to check bucket monotonicity and the +Inf == _count tie-out *)
  let buckets : (string * (string * string) list, float) Hashtbl.t =
    Hashtbl.create 32
  in
  let inf_buckets : (string * (string * string) list, float) Hashtbl.t =
    Hashtbl.create 32
  in
  let counts : (string * (string * string) list, float) Hashtbl.t =
    Hashtbl.create 32
  in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  try
    List.iteri
      (fun lineno line ->
        let fail msg =
          raise (Bad (Printf.sprintf "line %d: %s" (lineno + 1) msg))
        in
        let line = if String.length line > 0 && line.[String.length line - 1] = '\r'
          then String.sub line 0 (String.length line - 1) else line in
        if line = "" then ()
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: ("TYPE" as kw) :: name :: rest ->
            (match rest with
            | [ ("counter" | "gauge" | "histogram" | "summary" | "untyped") ]
              ->
              Hashtbl.replace types name (List.hd rest)
            | _ -> fail (Printf.sprintf "%s %s: bad type" kw name))
          | "#" :: "HELP" :: _ :: _ -> ()
          | _ -> fail "malformed comment (want # TYPE or # HELP)"
        end
        else
          let p =
            try parse_sample line with Bad m -> fail m
          in
          let base suffix =
            let bn = String.length p.pl_name - String.length suffix in
            if
              bn > 0
              && String.sub p.pl_name bn (String.length suffix) = suffix
              && Hashtbl.find_opt types (String.sub p.pl_name 0 bn)
                 = Some "histogram"
            then Some (String.sub p.pl_name 0 bn)
            else None
          in
          (* every sample must belong to a family declared by a
             preceding # TYPE — either directly or through a histogram
             family's _bucket/_sum/_count suffixes *)
          if
            (not (Hashtbl.mem types p.pl_name))
            && base "_bucket" = None && base "_sum" = None
            && base "_count" = None
          then fail (p.pl_name ^ ": sample without a preceding # TYPE");
          (match base "_bucket" with
          | Some fam ->
            let le =
              match List.assoc_opt "le" p.pl_labels with
              | Some le -> le
              | None -> fail (fam ^ "_bucket without le label")
            in
            let key =
              (fam, List.filter (fun (k, _) -> k <> "le") p.pl_labels)
            in
            let prev =
              Option.value ~default:0. (Hashtbl.find_opt buckets key)
            in
            if p.pl_value < prev then
              fail
                (Printf.sprintf
                   "%s: bucket le=%s count %g below previous %g (buckets \
                    must be cumulative)"
                   fam le p.pl_value prev);
            Hashtbl.replace buckets key p.pl_value;
            if le = "+Inf" then Hashtbl.replace inf_buckets key p.pl_value
          | None -> (
            match base "_count" with
            | Some fam ->
              Hashtbl.replace counts (fam, p.pl_labels) p.pl_value
            | None -> ()));
          if Float.is_finite p.pl_value && p.pl_value < 0.
             && Hashtbl.find_opt types p.pl_name = Some "counter"
          then fail (p.pl_name ^ ": negative counter value"))
      lines;
    (* every histogram family must tie out: +Inf bucket = _count *)
    Hashtbl.iter
      (fun (fam, labels) total ->
        match Hashtbl.find_opt inf_buckets (fam, labels) with
        | Some inf when inf <> total ->
          raise
            (Bad
               (Printf.sprintf "%s: +Inf bucket %g <> _count %g" fam inf
                  total))
        | Some _ -> ()
        | None -> raise (Bad (fam ^ ": histogram without +Inf bucket")))
      counts;
    Ok ()
  with Bad m -> Error m
