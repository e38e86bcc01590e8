type value = Float of float | Int of int | Str of string | Bool of bool

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  stop_s : float;
  attrs : (string * value) list;
}

type metric = {
  metric_name : string;
  kind : string;
  fields : (string * float) list;
}

type point = {
  series : string;
  span_id : int option;
  iter : int;
  values : (string * float) list;
}

type sample = { s_kind : string; t_s : float; values : (string * float) list }

type diag = {
  d_solve : string;
  d_stage : string;
  d_values : (string * float) list;
  d_tags : (string * string) list;
  d_curve : (float * float) array;
}

type event =
  | Span of span
  | Metric of metric
  | Point of point
  | Sample of sample
  | Diag of diag

(* ---------------- sinks ---------------- *)

type sink = { emit : event -> unit; flush : unit -> unit }

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let memory () =
  let acc = ref [] in
  ( { emit = (fun e -> acc := e :: !acc); flush = (fun () -> ()) },
    fun () -> List.rev !acc )

let active : sink option ref = ref None

(* Spans and metrics can be emitted from worker domains under a parallel
   section; the sink (a shared out_channel or the memory accumulator) is
   not domain-safe on its own, so all emission serializes here. The
   [tracing] fast path — the only cost when no sink is installed — stays
   an unlocked load. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let tracing () = Option.is_some !active

let emit e = locked (fun () -> match !active with Some s -> s.emit e | None -> ())

let flush () = locked (fun () -> match !active with Some s -> s.flush () | None -> ())

let install s = locked (fun () -> active := Some s)

let uninstall () =
  flush ();
  locked (fun () -> active := None)

(* ---------------- JSON writing ---------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g round-trips every finite double exactly. A bare integer rendering
   ("5") would read back as an Int, so integral floats get an explicit
   ".0"; non-finite floats are not JSON numbers and become strings. *)
let float_json f =
  if Float.is_nan f then "\"nan\""
  else if not (Float.is_finite f) then if f > 0.0 then "\"inf\"" else "\"-inf\""
  else begin
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> Char.equal c '.' || Char.equal c 'e' || Char.equal c 'E') s then s
    else s ^ ".0"
  end

let value_json = function
  | Float f -> float_json f
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Bool b -> if b then "true" else "false"

let pairs_json render kvs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (render v)) kvs)

let to_json = function
  | Span s ->
    Printf.sprintf "{\"ev\":\"span\",\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"start\":%s,\"stop\":%s,\"attrs\":{%s}}"
      s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
      (escape s.name) (float_json s.start_s) (float_json s.stop_s)
      (pairs_json value_json s.attrs)
  | Metric m ->
    Printf.sprintf "{\"ev\":\"metric\",\"name\":\"%s\",\"kind\":\"%s\",\"fields\":{%s}}"
      (escape m.metric_name) (escape m.kind)
      (pairs_json float_json m.fields)
  | Point p ->
    Printf.sprintf "{\"ev\":\"point\",\"series\":\"%s\",\"span\":%s,\"iter\":%d,\"fields\":{%s}}"
      (escape p.series)
      (match p.span_id with Some id -> string_of_int id | None -> "null")
      p.iter
      (pairs_json float_json p.values)
  | Sample s ->
    Printf.sprintf "{\"ev\":\"sample\",\"kind\":\"%s\",\"t\":%s,\"fields\":{%s}}"
      (escape s.s_kind) (float_json s.t_s)
      (pairs_json float_json s.values)
  | Diag d ->
    let curve =
      String.concat ","
        (Array.to_list
           (Array.map (fun (l, s) -> Printf.sprintf "[%s,%s]" (float_json l) (float_json s)) d.d_curve))
    in
    Printf.sprintf
      "{\"ev\":\"diag\",\"solve\":\"%s\",\"stage\":\"%s\",\"fields\":{%s},\"tags\":{%s},\"curve\":[%s]}"
      (escape d.d_solve) (escape d.d_stage)
      (pairs_json float_json d.d_values)
      (pairs_json (fun v -> Printf.sprintf "\"%s\"" (escape v)) d.d_tags)
      curve

let jsonl oc =
  {
    emit =
      (fun e ->
        output_string oc (to_json e);
        output_char oc '\n');
    flush = (fun () -> Stdlib.flush oc);
  }

(* ---------------- JSON parsing ---------------- *)

(* A minimal recursive-descent parser for the subset we emit. Numbers stay
   raw strings until the schema layer knows whether Int or Float is
   wanted. *)
type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of string
  | J_bool of bool
  | J_null

exception Bad of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when Char.equal x ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected '%c' at offset %d, found '%c'" ch c.pos x))
  | None -> raise (Bad (Printf.sprintf "expected '%c' at offset %d, found end of input" ch c.pos))

let expect_word c word =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.equal (String.sub c.src c.pos n) word then
    c.pos <- c.pos + n
  else raise (Bad (Printf.sprintf "expected %s at offset %d" word c.pos))

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> raise (Bad "bad hex digit in \\u escape")

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then raise (Bad "truncated \\u escape");
        let code =
          (hex_digit c.src.[c.pos] * 0x1000)
          + (hex_digit c.src.[c.pos + 1] * 0x100)
          + (hex_digit c.src.[c.pos + 2] * 0x10)
          + hex_digit c.src.[c.pos + 3]
        in
        c.pos <- c.pos + 4;
        (* We only ever emit \u for control characters; decode the
           code point as UTF-8 so arbitrary input still parses. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> raise (Bad "bad escape sequence"));
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when numeric ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.pos = start then raise (Bad (Printf.sprintf "expected a number at offset %d" start));
  String.sub c.src start (c.pos - start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
    advance c;
    skip_ws c;
    if (match peek c with Some '}' -> true | _ -> false) then begin
      advance c;
      J_obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> raise (Bad (Printf.sprintf "expected ',' or '}' at offset %d" c.pos))
      in
      J_obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if (match peek c with Some ']' -> true | _ -> false) then begin
      advance c;
      J_arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> raise (Bad (Printf.sprintf "expected ',' or ']' at offset %d" c.pos))
      in
      J_arr (elements [])
    end
  | Some '"' -> J_str (parse_string c)
  | Some 't' ->
    expect_word c "true";
    J_bool true
  | Some 'f' ->
    expect_word c "false";
    J_bool false
  | Some 'n' ->
    expect_word c "null";
    J_null
  | _ -> J_num (parse_number c)

let parse_document line =
  let c = { src = line; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  (match peek c with
  | Some ch -> raise (Bad (Printf.sprintf "trailing garbage '%c' at offset %d" ch c.pos))
  | None -> ());
  v

let json_of_string s =
  match parse_document s with v -> Ok v | exception Bad msg -> Error msg

let json_escape = escape

(* ---------------- schema layer ---------------- *)

let field obj key =
  match List.assoc_opt key obj with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" key))

let as_string key = function
  | J_str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a string" key))

let as_int key = function
  | J_num raw -> (
    match int_of_string_opt raw with
    | Some i -> i
    | None -> raise (Bad (Printf.sprintf "field %S: expected an integer, got %s" key raw)))
  | _ -> raise (Bad (Printf.sprintf "field %S: expected an integer" key))

let as_float key = function
  | J_num raw -> (
    match float_of_string_opt raw with
    | Some f -> f
    | None -> raise (Bad (Printf.sprintf "field %S: expected a number, got %s" key raw)))
  | J_str "nan" -> Float.nan
  | J_str "inf" -> Float.infinity
  | J_str "-inf" -> Float.neg_infinity
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a number" key))

let as_obj key = function
  | J_obj kvs -> kvs
  | _ -> raise (Bad (Printf.sprintf "field %S: expected an object" key))

let attr_value key = function
  | J_str s -> Str s
  | J_bool b -> Bool b
  | J_num raw -> (
    (* Integer renderings carry no '.', 'e' or 'E' (see float_json). *)
    if String.exists (fun c -> Char.equal c '.' || Char.equal c 'e' || Char.equal c 'E') raw then
      match float_of_string_opt raw with
      | Some f -> Float f
      | None -> raise (Bad (Printf.sprintf "attr %S: bad number %s" key raw))
    else
      match int_of_string_opt raw with
      | Some i -> Int i
      | None -> raise (Bad (Printf.sprintf "attr %S: bad number %s" key raw)))
  | _ -> raise (Bad (Printf.sprintf "attr %S: expected a scalar" key))

let event_of_document doc =
  match doc with
  | J_obj obj -> (
    match as_string "ev" (field obj "ev") with
    | "span" ->
      let parent =
        match field obj "parent" with J_null -> None | v -> Some (as_int "parent" v)
      in
      Span
        {
          id = as_int "id" (field obj "id");
          parent;
          name = as_string "name" (field obj "name");
          start_s = as_float "start" (field obj "start");
          stop_s = as_float "stop" (field obj "stop");
          attrs =
            List.map (fun (k, v) -> (k, attr_value k v)) (as_obj "attrs" (field obj "attrs"));
        }
    | "metric" ->
      Metric
        {
          metric_name = as_string "name" (field obj "name");
          kind = as_string "kind" (field obj "kind");
          fields =
            List.map (fun (k, v) -> (k, as_float k v)) (as_obj "fields" (field obj "fields"));
        }
    | "point" ->
      let span_id =
        match field obj "span" with J_null -> None | v -> Some (as_int "span" v)
      in
      Point
        {
          series = as_string "series" (field obj "series");
          span_id;
          iter = as_int "iter" (field obj "iter");
          values =
            List.map (fun (k, v) -> (k, as_float k v)) (as_obj "fields" (field obj "fields"));
        }
    | "sample" ->
      Sample
        {
          s_kind = as_string "kind" (field obj "kind");
          t_s = as_float "t" (field obj "t");
          values =
            List.map (fun (k, v) -> (k, as_float k v)) (as_obj "fields" (field obj "fields"));
        }
    | "diag" ->
      let pair = function
        | J_arr [ l; s ] -> (as_float "curve" l, as_float "curve" s)
        | _ -> raise (Bad "field \"curve\": expected [lambda,score] pairs")
      in
      let curve =
        match field obj "curve" with
        | J_arr elems -> Array.of_list (List.map pair elems)
        | _ -> raise (Bad "field \"curve\": expected an array")
      in
      Diag
        {
          d_solve = as_string "solve" (field obj "solve");
          d_stage = as_string "stage" (field obj "stage");
          d_values =
            List.map (fun (k, v) -> (k, as_float k v)) (as_obj "fields" (field obj "fields"));
          d_tags =
            List.map (fun (k, v) -> (k, as_string k v)) (as_obj "tags" (field obj "tags"));
          d_curve = curve;
        }
    | other -> raise (Bad (Printf.sprintf "unknown event kind %S" other)))
  | _ -> raise (Bad "expected a JSON object")

let of_json line =
  match event_of_document (parse_document line) with
  | ev -> Ok ev
  | exception Bad msg -> Error msg

let read_jsonl ic =
  let rec go acc lineno =
    match In_channel.input_line ic with
    | None -> Ok (List.rev acc)
    | Some line ->
      if String.equal (String.trim line) "" then go acc (lineno + 1)
      else (
        match of_json line with
        | Ok ev -> go (ev :: acc) (lineno + 1)
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go [] 1

(* ---------------- text summary tree ---------------- *)

let duration s = s.stop_s -. s.start_s

let format_seconds s =
  if Float.abs s >= 1.0 then Printf.sprintf "%8.3f s " s
  else if Float.abs s >= 1e-3 then Printf.sprintf "%8.3f ms" (s *. 1e3)
  else Printf.sprintf "%8.1f us" (s *. 1e6)

let output_metrics oc metrics =
  if metrics <> [] then begin
    Printf.fprintf oc "metrics:\n";
    List.iter
      (fun m ->
        let show k =
          match List.assoc_opt k m.fields with Some v -> Printf.sprintf "%s=%g" k v | None -> ""
        in
        let body =
          match m.kind with
          | "counter" | "gauge" -> show "value"
          | _ ->
            String.concat " "
              (List.filter
                 (fun s -> not (String.equal s ""))
                 (List.map show [ "count"; "mean"; "min"; "p50"; "p90"; "p99"; "max"; "sum" ]))
        in
        Printf.fprintf oc "  %-9s %-32s %s\n" m.kind m.metric_name body)
      (List.sort (fun a b -> String.compare a.metric_name b.metric_name) metrics)
  end

(* ---------------- aggregate top-N table ---------------- *)

(* Per-span-name totals: call count, summed duration, and self time (total
   minus time spent in child spans). Orphans count their duration as self
   relative to whatever children were emitted. *)
let aggregate_spans spans =
  let known = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace known s.id s) spans;
  let totals : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  let row name =
    match Hashtbl.find_opt totals name with
    | Some r -> r
    | None ->
      let r = (ref 0, ref 0.0, ref 0.0) in
      Hashtbl.replace totals name r;
      r
  in
  List.iter
    (fun s ->
      let count, total, self = row s.name in
      incr count;
      total := !total +. duration s;
      self := !self +. duration s;
      (* Charge this span's duration against its parent's self time. *)
      match s.parent with
      | Some p -> (
        match Hashtbl.find_opt known p with
        | Some parent ->
          let _, _, parent_self = row parent.name in
          parent_self := !parent_self -. duration s
        | None -> ())
      | None -> ())
    spans;
  let rows =
    Hashtbl.fold
      (fun name (count, total, self) acc -> (name, !count, !total, !self) :: acc)
      totals []
  in
  List.sort
    (fun (na, _, ta, _) (nb, _, tb, _) ->
      match Float.compare tb ta with 0 -> String.compare na nb | c -> c)
    rows

(* A span with children whose self time is still more than half its total
   spends most of its time in code no child span names: unattributed time
   to split out next. Leaves are all self time and are never marked. *)
let unattributed_mark ~has_children ~total ~self =
  if has_children && self > 0.5 *. total then "  <- self > 1/2 of total" else ""

let aggregate_span_rows events =
  aggregate_spans (List.filter_map (function Span s -> Some s | _ -> None) events)

let output_top oc ~top events =
  let spans = List.filter_map (function Span s -> Some s | _ -> None) events in
  let rows = aggregate_spans spans in
  let shown = if top <= 0 then rows else List.filteri (fun i _ -> i < top) rows in
  if shown <> [] then begin
    Printf.fprintf oc "top spans by total time (%d of %d names):\n" (List.length shown)
      (List.length rows);
    Printf.fprintf oc "  %-36s %7s  %11s  %11s\n" "span" "calls" "total" "self";
    List.iter
      (fun (name, count, total, self) ->
        (* Only a span with children has self < total. *)
        Printf.fprintf oc "  %-36s %6dx  %s  %s%s\n" name count (format_seconds total)
          (format_seconds self)
          (unattributed_mark ~has_children:(self < total) ~total ~self))
      shown
  end

(* Per-kind event totals. The span tree and metrics table silently drop
   point/sample/diag events, so a truncated trace (killed run, full disk)
   looks complete without this footer: the counts make every event in the
   stream accountable. *)
let output_event_counts oc events =
  let count_by key items =
    let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun it ->
        let k = key it in
        match Hashtbl.find_opt tbl k with
        | Some r -> incr r
        | None -> Hashtbl.replace tbl k (ref 1))
      items;
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])
  in
  let spans = List.filter (function Span _ -> true | _ -> false) events in
  let metrics = List.filter (function Metric _ -> true | _ -> false) events in
  let points = List.filter_map (function Point p -> Some p | _ -> None) events in
  let samples = List.filter_map (function Sample s -> Some s | _ -> None) events in
  let diags = List.filter_map (function Diag d -> Some d | _ -> None) events in
  Printf.fprintf oc "events: %d total — %d spans, %d metrics, %d points, %d samples, %d diags\n"
    (List.length events) (List.length spans) (List.length metrics) (List.length points)
    (List.length samples) (List.length diags);
  let breakdown label rows =
    if rows <> [] then
      Printf.fprintf oc "  %-8s %s\n" label
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) rows))
  in
  breakdown "points:" (count_by (fun p -> p.series) points);
  breakdown "samples:" (count_by (fun s -> s.s_kind) samples);
  breakdown "diags:" (count_by (fun d -> d.d_stage) diags)

let output_summary oc events =
  let spans = List.filter_map (function Span s -> Some s | _ -> None) events in
  let metrics = List.filter_map (function Metric m -> Some m | _ -> None) events in
  let known = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace known s.id ()) spans;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  (* Emission order is close order; re-sort by start so the tree reads
     chronologically. Orphans (parent never emitted) become roots. *)
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem known p ->
        Hashtbl.replace children p (s :: (match Hashtbl.find_opt children p with Some l -> l | None -> []))
      | _ -> roots := s :: !roots)
    spans;
  let by_start a b = Float.compare a.start_s b.start_s in
  let kids s = List.sort by_start (match Hashtbl.find_opt children s.id with Some l -> l | None -> []) in
  if spans <> [] then Printf.fprintf oc "span tree (count, total, self):\n";
  (* Aggregate siblings sharing a name into one row; recurse over the
     union of their children so repeated sub-structure stays collapsed. *)
  let rec render depth group =
    let total = List.fold_left (fun acc s -> acc +. duration s) 0.0 group in
    let all_kids = List.concat_map kids group in
    let child_total = List.fold_left (fun acc s -> acc +. duration s) 0.0 all_kids in
    let name = match group with s :: _ -> s.name | [] -> "" in
    let self = total -. child_total in
    Printf.fprintf oc "  %-*s%-*s %5dx  total %s  self %s%s\n" (2 * depth) "" (36 - (2 * depth))
      name (List.length group) (format_seconds total) (format_seconds self)
      (unattributed_mark ~has_children:(all_kids <> []) ~total ~self);
    render_level (depth + 1) all_kids
  and render_level depth spans =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun s ->
        if not (Hashtbl.mem seen s.name) then begin
          Hashtbl.replace seen s.name ();
          render depth (List.filter (fun x -> String.equal x.name s.name) spans)
        end)
      (List.sort by_start spans)
  in
  render_level 0 (List.sort by_start !roots);
  if spans <> [] && metrics <> [] then Printf.fprintf oc "\n";
  output_metrics oc metrics;
  if events <> [] then begin
    if spans <> [] || metrics <> [] then Printf.fprintf oc "\n";
    output_event_counts oc events
  end
