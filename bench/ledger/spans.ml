(* The traced pass's span recorder. Spans carry a name, start, end and the
   span that was open when they began; they stay in memory and are written
   out once, as Chrome trace events, when the workload finishes. Calls too
   frequent for one span each (a core's per-cycle step) are folded into an
   aggregate under the open span: a count and a total, plus a shared
   histogram per name for percentiles. Self time is a span's duration minus
   what its child spans and aggregates cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Nanosecond samples in 10 ns buckets up to 100 us; the rare longer
   samples (GC slices, page faults) are kept exactly. *)
type hist = {
  buckets : int array;
  mutable over : int list;
  mutable count : int;
}

let bucket_ns = 10
let nbuckets = 10_000

let hist_create () = { buckets = Array.make nbuckets 0; over = []; count = 0 }

let hist_add h ns =
  h.count <- h.count + 1;
  let b = ns / bucket_ns in
  if b < nbuckets then h.buckets.(max 0 b) <- h.buckets.(max 0 b) + 1
  else h.over <- ns :: h.over

(* The [p]-th percentile (0 < p < 100), to bucket resolution. *)
let percentile h p =
  if h.count = 0 then nan
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)) in
    let rank = max 1 (min h.count rank) in
    let rec walk b seen =
      if b >= nbuckets then
        let over = Array.of_list (List.sort compare h.over) in
        float_of_int over.(rank - seen - 1)
      else
        let seen' = seen + h.buckets.(b) in
        if seen' >= rank then float_of_int ((b * bucket_ns) + (bucket_ns / 2))
        else walk (b + 1) seen'
    in
    walk 0 0
  end

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it; None below 40 samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.99; 99.9; 99.0; 90.0; 75.0 ]

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  start_ns : int;
  mutable stop_ns : int;
}

type agg = { a_name : string; a_parent : int; mutable a_count : int; mutable a_total : int }

type t = {
  mutable spans : span list;  (** newest first *)
  aggs : (int * string, agg) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable stack : int list;
  mutable next_id : int;
}

let create () =
  { spans = []; aggs = Hashtbl.create 64; hists = Hashtbl.create 8; stack = []; next_id = 0 }

let current t = match t.stack with id :: _ -> id | [] -> -1

let with_span t name f =
  let s =
    { id = t.next_id; name; parent = current t; start_ns = now_ns (); stop_ns = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  t.stack <- s.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      t.stack <- List.tl t.stack)
    f

(* A recorder for [name] under the currently open span. *)
let agg t name =
  let key = (current t, name) in
  let a =
    match Hashtbl.find_opt t.aggs key with
    | Some a -> a
    | None ->
      let a = { a_name = name; a_parent = current t; a_count = 0; a_total = 0 } in
      Hashtbl.replace t.aggs key a;
      a
  in
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
      let h = hist_create () in
      Hashtbl.replace t.hists name h;
      h
  in
  fun ns ->
    a.a_count <- a.a_count + 1;
    a.a_total <- a.a_total + ns;
    hist_add h ns

let hist t name = Hashtbl.find_opt t.hists name

let dur s = s.stop_ns - s.start_ns
let spans t = List.rev t.spans

(* Total nanoseconds of every span (or aggregate) called [name]. *)
let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc + dur s else acc) 0 t.spans
  + Hashtbl.fold (fun _ a acc -> if a.a_name = name then acc + a.a_total else acc) t.aggs 0

(* The shortest span called [name], in nanoseconds. *)
let fastest t name = List.fold_left (fun acc s -> if s.name = name then min acc (dur s) else acc) max_int t.spans

let count t name =
  List.length (List.filter (fun s -> s.name = name) t.spans)
  + Hashtbl.fold (fun _ a acc -> if a.a_name = name then acc + a.a_count else acc) t.aggs 0

(* Self time per name: (name, calls, total ns, self ns), largest self
   first. Aggregates are leaves, so their self time is their total. *)
let self_times t =
  let covered = Hashtbl.create 64 in
  let cover parent ns =
    if parent >= 0 then
      Hashtbl.replace covered parent (ns + Option.value ~default:0 (Hashtbl.find_opt covered parent))
  in
  List.iter (fun s -> cover s.parent (dur s)) t.spans;
  Hashtbl.iter (fun _ a -> cover a.a_parent a.a_total) t.aggs;
  let rows = Hashtbl.create 16 in
  let add name calls tot self =
    let c, tt, sf = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt rows name) in
    Hashtbl.replace rows name (c + calls, tt + tot, sf + self)
  in
  List.iter
    (fun s ->
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt covered s.id) in
      add s.name 1 (dur s) self)
    t.spans;
  Hashtbl.iter (fun _ a -> add a.a_name a.a_count a.a_total a.a_total) t.aggs;
  Hashtbl.fold (fun name (c, tt, sf) acc -> (name, c, tt, sf) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Chrome trace events, one JSON object per line, timestamps in
   microseconds from the first span. Aggregates become one complete event
   at their parent's start whose duration is their summed time. *)
let chrome_events t ~pid ~process =
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int t.spans in
  let us ns = float_of_int (ns - origin) /. 1000.0 in
  let ev ~name ~ts ~dur ~args =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"ledger\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{%s}}"
      (Json.quote name) ts dur pid args
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%s}}" pid
      (Json.quote process)
  in
  let span_evs =
    List.map
      (fun s ->
        ev ~name:s.name ~ts:(us s.start_ns)
          ~dur:(float_of_int (dur s) /. 1000.0)
          ~args:(Printf.sprintf "\"id\":%d,\"parent\":%d" s.id s.parent))
      (spans t)
  in
  let agg_evs =
    Hashtbl.fold
      (fun _ a acc ->
        match Hashtbl.find_opt by_id a.a_parent with
        | None -> acc
        | Some p ->
          ev ~name:a.a_name ~ts:(us p.start_ns)
            ~dur:(float_of_int a.a_total /. 1000.0)
            ~args:(Printf.sprintf "\"parent\":%d,\"count\":%d,\"aggregate\":true" p.id a.a_count)
          :: acc)
      t.aggs []
  in
  meta :: (span_evs @ agg_evs)

let write_chrome path events =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc (String.concat ",\n" events);
  output_string oc "\n]}\n";
  close_out oc
