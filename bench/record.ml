(* The one writer of the bench's machine-readable records: every
   experiment that keeps numbers for CI writes them as BENCH_<name>.json
   through [write]. Strings are escaped and non-finite floats (a speedup
   over a zero time) become null, so every record parses as JSON. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* the shorter of %.15g and %.17g that reads back as the same float *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* one item per line, indented two spaces per level *)
let rec render b ind = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> add_string b s
  | List vs -> block b ind "[]" (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> block b ind "{}" (List.map (fun (k, v) -> (Some k, v)) kvs)

and block b ind brackets items =
  Buffer.add_char b brackets.[0];
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\n%s  " (if i = 0 then "" else ",") ind;
      Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") k;
      render b (ind ^ "  ") v)
    items;
  if items <> [] then Printf.bprintf b "\n%s" ind;
  Buffer.add_char b brackets.[1]

(* Write {"experiment": name, fields...} to BENCH_<name>.json. *)
let write name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let b = Buffer.create 1024 in
  render b "" (Obj (("experiment", Str name) :: fields));
  Buffer.add_char b '\n';
  Out_channel.with_open_text file (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s\n%!" file
