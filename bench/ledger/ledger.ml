(* The performance ledger: four seeded workloads measured end to end
   (host time, throughput, memory) with tracing off, and per layer from a
   separate traced pass. See README.md in this directory.

     dune exec bench/ledger/ledger.exe -- --seed 7
     dune exec bench/ledger/ledger.exe -- --workload fuzz3 --seed 7 --seconds 25 --trace 0
     dune exec bench/ledger/ledger.exe -- --seed 7 --trace 1 --trace-file ledger.trace.json
     dune exec bench/ledger/ledger.exe -- --repeat 5 --seed 7
     dune exec bench/ledger/ledger.exe -- --quick

   One workload runs in this process. Several run one after another, each
   in a child process of its own (this executable again, with
   [--workload NAME]), so no GC heap, RSS or cache carries over. The last
   line of standard output is always one JSON object: correct, attempted,
   failed and metrics (the end-to-end metrics untraced, the per-layer ones
   traced). Exit 1 means a correctness check failed, 2 a usage error. *)

module W = Workloads

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

(* Every metric is reported for every workload; BENCHMARK.json must list
   exactly these (checked at start-up). *)
let end_to_end =
  [ m "setup_s" "s" "lower"; m "wall_s" "s" "lower"; m "sim_kips" "kinsn/s" "higher"; m "peak_rss_mb" "MB" "lower" ]

let per_layer =
  [
    m "ooo.step_ns.p50" "ns" "lower";
    m "ooo.step_ns.p99" "ns" "lower";
    m "ooo.host_share" "ratio" "lower";
    m "seq.mips" "Minsn/s" "higher";
    m "sim.ipc" "insn/cycle" "higher";
    m "ooo.uops_per_insn" "uop/insn" "lower";
    m "ooo.replays_per_kuop" "1/kuop" "lower";
    m "bpred.mpki" "1/kinsn" "lower";
    m "mem.l1d_mpki" "1/kinsn" "lower";
    m "mem.l2_mpki" "1/kinsn" "lower";
    m "mem.dtlb_mpki" "1/kinsn" "lower";
    m "bbcache.hit_ratio" "ratio" "higher";
    m "trace.overhead_pct" "%" "lower";
  ]

exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)
(* ------------------------------------------------------------------ *)

type spec = { workloads : string list; bounds : (string * float) list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let j =
    try Json.parse (read_file path) with
    | Sys_error e -> usage "cannot read %s: %s" path e
    | Json.Error e -> usage "%s: %s" path e
  in
  let metrics key =
    List.map
      (fun e ->
        let s k = Json.to_string (Json.field k e) in
        { name = s "name"; unit = s "unit"; better = s "better" })
      (Json.to_list (Json.field key j))
  in
  let same key ours =
    let sort = List.sort compare in
    if sort (metrics key) <> sort ours then
      usage "%s: %s differs from the metrics this ledger prints (%s)" path key
        (String.concat ", " (List.map (fun x -> x.name ^ " [" ^ x.unit ^ ", " ^ x.better ^ "]") ours))
  in
  same "end_to_end" end_to_end;
  same "per_layer" per_layer;
  let workloads = List.map (fun e -> Json.to_string (Json.field "name" e)) (Json.to_list (Json.field "workloads" j)) in
  if List.sort compare workloads <> List.sort compare (List.map (fun w -> w.W.name) W.all) then
    usage "%s: workloads differ from the ledger's" path;
  let bounds =
    List.map
      (fun e -> (Json.to_string (Json.field "name" e), Json.to_float (Json.field "bound" e)))
      (Json.to_list (Json.field "end_to_end" j))
  in
  { workloads; bounds }

(* ------------------------------------------------------------------ *)
(* Small statistics                                                     *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) (its default, exclusive
   method), so the spreads printed here match the ones a harness computes
   from the same values. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let clock () = float_of_int (Spans.now_ns ()) /. 1e9

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let metrics_json table values =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote x.name)
           (Json.number (List.assoc x.name values))
           (Json.quote x.unit))
       table)

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed metrics

let print_metrics table values =
  List.iter (fun x -> Printf.printf "  %-24s %14.6g %s\n" x.name (List.assoc x.name values) x.unit) table

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                        *)
(* ------------------------------------------------------------------ *)

let scratch_dir () =
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf "_ledger_tmp.%d" (Unix.getpid ())) in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> if Sys.file_exists dir then rm dir);
  dir

(* A gate fails if any op failed it. *)
let merge_gates gates =
  List.fold_left
    (fun acc (name, ok) ->
      match List.assoc_opt name acc with
      | Some prev -> (name, prev && ok) :: List.remove_assoc name acc
      | None -> (name, ok) :: acc)
    [] gates
  |> List.rev

let model_ratios (o : W.outcome) =
  let f p = float_of_int (o.W.stat p) in
  let insns = f "ooo.commit.insns" and uops = f "ooo.commit.uops" in
  let per_k x d = 1000.0 *. x /. d in
  let hits = f "bbcache.hits" in
  [
    ("sim.ipc", insns /. f "ooo.cycles");
    ("ooo.uops_per_insn", uops /. insns);
    ("ooo.replays_per_kuop", per_k (f "ooo.issue.replays") uops);
    ("bpred.mpki", per_k (f "ooo.commit.mispredicts") insns);
    ("mem.l1d_mpki", per_k (f "ooo.mem.L1D.misses") insns);
    ("mem.l2_mpki", per_k (f "ooo.mem.L2.misses") insns);
    ("mem.dtlb_mpki", per_k (f "ooo.dcache.dtlb_misses") insns);
    ("bbcache.hit_ratio", hits /. (hits +. f "bbcache.misses"));
  ]

let print_self_times sp =
  let rows = Spans.self_times sp in
  let wall = List.fold_left (fun acc s -> if s.Spans.parent = -1 then acc + Spans.dur s else acc) 0 (Spans.spans sp) in
  Printf.printf "  %-44s %9s %10s %10s %7s\n" "span (self time, traced ops and probes)" "calls" "total s" "self s" "self %";
  List.iter
    (fun (name, calls, total, self) ->
      Printf.printf "  %-44s %9d %10.3f %10.3f %6.1f%%\n" name calls (float_of_int total /. 1e9)
        (float_of_int self /. 1e9)
        (100.0 *. float_of_int self /. float_of_int (max 1 wall)))
    rows

(* Prints the traced pass and returns its per-layer metrics. Every
   workload times OoO steps, so the "ooo.step" histogram always exists. *)
let traced_report (w : W.t) sp (p : W.probe) ~traced_ops ~untraced_s ~trace_file =
  let steps = Option.get (Spans.hist sp "ooo.step") in
  let pct = Spans.percentile steps in
  let fastest = List.fold_left (fun acc (_, dt) -> Float.min acc dt) infinity traced_ops in
  let layer =
    [
      ("ooo.step_ns.p50", pct 50.0);
      ("ooo.step_ns.p99", pct 99.0);
      ("ooo.host_share", float_of_int (Spans.total sp "ooo.step") /. float_of_int (Spans.total sp "op"));
      ("seq.mips", p.W.seq_mips);
      ("trace.overhead_pct", 100.0 *. ((fastest /. untraced_s) -. 1.0));
    ]
    @ model_ratios (fst (List.hd traced_ops))
  in
  Printf.printf "== %s: traced pass, %d op(s) ==\n" w.W.name (List.length traced_ops);
  print_self_times sp;
  let op_self = List.find_map (fun (nm, _, _, self) -> if nm = "op" then Some self else None) (Spans.self_times sp) in
  Printf.printf "  layer spans cover %.1f%% of the traced ops' wall\n"
    (100.0 *. (1.0 -. (float_of_int (Option.value ~default:0 op_self) /. float_of_int (Spans.total sp "op"))));
  let tail = Spans.tail_percentile steps.Spans.count in
  Printf.printf "  ooo.step_ns: p50 %.0f, p%s %.0f over %d steps\n" (pct 50.0)
    (match tail with Some q -> Printf.sprintf "%g" q | None -> "max")
    (pct (Option.value ~default:100.0 tail))
    steps.Spans.count;
  print_metrics per_layer layer;
  List.iter (fun (name, v, u) -> Printf.printf "  %-44s %14.6g %s\n" name v u) p.W.lines;
  Option.iter
    (fun path ->
      Spans.write_chrome path (Spans.chrome_events sp ~pid:(Unix.getpid ()) ~process:w.W.name);
      Printf.printf "  wrote %s\n" path)
    trace_file;
  layer

let run_one (w : W.t) ~seed ~seconds ~traced ~quick ~trace_file =
  let env = { W.seed; quick; scratch = scratch_dir () } in
  Filename.set_temp_dir_name env.W.scratch;
  Printf.printf "ledger: %s seed=%d seconds=%g trace=%d%s\n%!" w.W.name seed seconds (Bool.to_int traced)
    (if quick then " quick" else "");
  let sp = Spans.create () in
  let setups = ref [] and untraced = ref [] and traced_ops = ref [] in
  let time f =
    let t0 = clock () in
    let r = f () in
    (r, clock () -. t0)
  in
  let prepare k =
    let op, dt = time (fun () -> w.W.prepare env k) in
    setups := dt :: !setups;
    op
  in
  let min_ops, seconds = if quick then (1, 0.0) else ((if traced then 2 else 3), seconds) in
  let start = clock () in
  let k = ref 0 in
  (* traced ops alternate with untraced ones on the same input, so both
     see the same host conditions and can be compared op for op *)
  while !k < min_ops || clock () -. start < seconds do
    let op = prepare !k in
    untraced := time (fun () -> op None) :: !untraced;
    if traced then begin
      let op = prepare !k in
      traced_ops := time (fun () -> Spans.with_span sp "op" (fun () -> op (Some sp))) :: !traced_ops
    end;
    incr k
  done;
  let untraced = List.rev !untraced and traced_ops = List.rev !traced_ops in
  let first = fst (List.hd untraced) in
  let outcomes = List.map fst untraced @ List.map fst traced_ops in
  (* read before the traced pass's probes allocate *)
  let rss = peak_rss_mb () in
  (* Ops repeat the same work, and contention from other tenants of a
     shared host only ever slows one down: the fastest op is the steadiest
     estimate of the simulator's own cost (the median is printed too). *)
  let fastest ops = List.fold_left (fun acc (_, dt) -> Float.min acc dt) infinity ops in
  let wall_s = fastest untraced in
  let probe =
    if traced then Some (w.W.probe env sp ~first:(fst (List.hd traced_ops)) ~untraced_s:wall_s) else None
  in
  let determinism =
    (if traced then
       [ ( "traced ops reproduce the untraced results",
           List.for_all2 (fun (u, _) (t, _) -> u.W.digest = t.W.digest) untraced traced_ops ) ]
     else [])
    @
    if w.W.per_op_input then []
    else [ ("every op reproduces op 0", List.for_all (fun o -> o.W.digest = first.W.digest) outcomes) ]
  in
  let gates =
    merge_gates
      (List.concat_map (fun o -> o.W.gates) outcomes
      @ determinism
      @ match probe with Some p -> p.W.checks | None -> [])
  in
  let attempted = List.fold_left (fun acc o -> acc + o.W.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc o -> acc + o.W.failed) 0 outcomes in
  let correct = failed = 0 && List.for_all snd gates in
  let e2e =
    [
      ("setup_s", median !setups);
      ("wall_s", wall_s);
      ( "sim_kips",
        List.fold_left (fun acc (o, dt) -> Float.max acc (float_of_int o.W.insns /. dt /. 1000.0)) 0.0 untraced );
      ("peak_rss_mb", rss);
    ]
  in
  let n = List.length untraced in
  let q1, q3 = quartiles (List.map snd untraced) in
  Printf.printf "== %s: %d untraced op(s) ==\n" w.W.name n;
  print_metrics end_to_end e2e;
  Printf.printf "  op wall over %d op(s): fastest %.4g  q1 %.4g  median %.4g  q3 %.4g s\n" n wall_s q1
    (median (List.map snd untraced)) q3;
  let samples name xs = Printf.printf "  %s samples: %s\n" name (String.concat " " (List.map (Printf.sprintf "%.4f") xs)) in
  samples "wall_s" (List.map snd untraced);
  samples "setup_s" (List.rev !setups);
  Printf.printf "  throughput %.4g %s/s\n"
    (float_of_int first.W.attempted /. wall_s)
    w.W.work_unit;
  Printf.printf "  ops %d  ops_failed %d  fail_frac %g\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf "sim_digest %s %s\n" w.W.name first.W.digest;
  List.iter (fun (name, ok) -> Printf.printf "  %s  %s\n" (if ok then "pass" else "FAIL") name) gates;
  let result = result_json ~correct ~attempted ~failed in
  (match probe with
  | None -> print_endline (result (metrics_json end_to_end e2e))
  | Some p ->
    let layer = traced_report w sp p ~traced_ops ~untraced_s:wall_s ~trace_file in
    Printf.printf "end_to_end %s\n" (result (metrics_json end_to_end e2e));
    print_endline (result (metrics_json per_layer layer)));
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Several workloads: one child process each                            *)
(* ------------------------------------------------------------------ *)

type child = { lines : string list; status : Unix.process_status }

let run_child ~echo args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if echo then print_endline l;
       lines := l :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  { lines = List.rev !lines; status }

let child_result c =
  match (c.status, List.rev c.lines) with
  | Unix.WEXITED (0 | 1), last :: _ -> (
    try Some (Json.parse last) with Json.Error _ -> None)
  | _ -> None

let child_metrics j =
  match Json.field "metrics" j with
  | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_float (Json.field "value" v))) kv
  | _ -> []

let line_with prefix c =
  List.find_map
    (fun l -> if String.starts_with ~prefix l then Some (String.sub l (String.length prefix) (String.length l - String.length prefix)) else None)
    c.lines

let child_args (w : W.t) ~seed ~seconds ~traced ~spec_path ~quick ~trace_file =
  [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; (if traced then "1" else "0"); "--spec"; spec_path ]
  @ (if quick then [ "--quick" ] else [])
  @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []

let merge_traces path parts =
  let events =
    List.concat_map
      (fun part ->
        let lines = String.split_on_char '\n' (read_file part) in
        Sys.remove part;
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"{\"name\"" l then
              Some (if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l)
            else None)
          lines)
      parts
  in
  Spans.write_chrome path events

let run_all ws ~seed ~seconds ~traced ~spec_path ~trace_file =
  let results =
    List.map
      (fun (w : W.t) ->
        let part = Option.map (fun f -> f ^ "." ^ w.W.name) trace_file in
        let c = run_child ~echo:true (child_args w ~seed ~seconds ~traced ~spec_path ~quick:false ~trace_file:part) in
        (w, part, child_result c))
      ws
  in
  (match trace_file with
  | Some path -> merge_traces path (List.filter_map (fun (_, p, _) -> Option.bind p (fun f -> if Sys.file_exists f then Some f else None)) results)
  | None -> ());
  let ok = List.for_all (fun (_, _, r) -> match r with Some j -> Json.to_bool (Json.field "correct" j) | None -> false) results in
  let sum key = List.fold_left (fun acc (_, _, r) -> match r with Some j -> acc + int_of_float (Json.to_float (Json.field key j)) | None -> acc) 0 results in
  let table = if traced then per_layer else end_to_end in
  let metrics =
    List.concat_map
      (fun ((w : W.t), _, r) ->
        match r with
        | None -> []
        | Some j ->
          List.map
            (fun (k, v) ->
              let unit = (List.find (fun x -> x.name = k) table).unit in
              Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote (w.W.name ^ "." ^ k)) (Json.number v) (Json.quote unit))
            (child_metrics j))
      results
  in
  print_endline (result_json ~correct:ok ~attempted:(sum "attempted") ~failed:(sum "failed") (String.concat ", " metrics));
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* --repeat: spread of every metric, to set and check the bounds         *)
(* ------------------------------------------------------------------ *)

let run_repeat ws ~k ~seed ~seconds ~traced ~spec_path ~(spec : spec) =
  let runs = Hashtbl.create 16 and digests = Hashtbl.create 4 and bad = ref 0 in
  for rep = 0 to k - 1 do
    (* alternate the order so no workload always runs first *)
    let order = if rep mod 2 = 0 then ws else List.rev ws in
    List.iter
      (fun (w : W.t) ->
        let c = run_child ~echo:false (child_args w ~seed ~seconds ~traced ~spec_path ~quick:false ~trace_file:None) in
        match child_result c with
        | Some j when Json.to_bool (Json.field "correct" j) ->
          Printf.printf "repeat %d/%d %s ok\n%!" (rep + 1) k w.W.name;
          List.iter
            (fun (name, v) -> Hashtbl.replace runs (w.W.name, name) (v :: Option.value ~default:[] (Hashtbl.find_opt runs (w.W.name, name))))
            (child_metrics j);
          Option.iter (fun d -> Hashtbl.replace digests (w.W.name, d) ()) (line_with ("sim_digest " ^ w.W.name ^ " ") c)
        | _ ->
          incr bad;
          Printf.printf "repeat %d/%d %s FAILED\n%!" (rep + 1) k w.W.name;
          List.iter print_endline c.lines)
      order
  done;
  let table = if traced then per_layer else end_to_end in
  Printf.printf "%-14s %-22s %4s %14s %14s %14s %8s %7s\n" "workload" "metric" "n" "q1" "median" "q3" "spread" "bound";
  let wide = ref 0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun x ->
          match Hashtbl.find_opt runs (w.W.name, x.name) with
          | None -> ()
          | Some vs ->
            let med = median vs and q1, q3 = quartiles vs in
            let spread = (q3 -. q1) /. Float.abs med in
            let bound = List.assoc_opt x.name spec.bounds in
            let flag = match bound with Some b when spread > b -> incr wide; "  WIDE" | _ -> "" in
            Printf.printf "%-14s %-22s %4d %14.6g %14.6g %14.6g %7.2f%% %7s%s\n" w.W.name x.name (List.length vs) q1 med q3
              (100.0 *. spread)
              (match bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
              flag)
        table;
      let n = Hashtbl.fold (fun (wn, _) () acc -> if wn = w.W.name then acc + 1 else acc) digests 0 in
      if n > 1 then begin
        incr bad;
        Printf.printf "%-14s sim_digest differs between repetitions of one seed\n" w.W.name
      end)
    ws;
  Printf.printf "%d metric(s) with an interquartile spread above their bound\n" !wide;
  if !bad = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* --quick: the test-suite check                                        *)
(* ------------------------------------------------------------------ *)

let run_quick ws ~spec_path =
  let names table = List.sort compare (List.map (fun x -> x.name) table) in
  let failures =
    List.filter
      (fun (w : W.t) ->
        let c = run_child ~echo:false (child_args w ~seed:1 ~seconds:0.0 ~traced:true ~spec_path ~quick:true ~trace_file:None) in
        let e2e = Option.map Json.parse (line_with "end_to_end " c) in
        let ok =
          match (child_result c, e2e) with
          | Some j, Some e ->
            Json.to_bool (Json.field "correct" j)
            && List.sort compare (List.map fst (child_metrics j)) = names per_layer
            && List.sort compare (List.map fst (child_metrics e)) = names end_to_end
          | _ -> false
        in
        Printf.printf "quick: %-14s %s\n%!" w.W.name
          (if ok then "ok: every gate passed, metric names match BENCHMARK.json" else "FAILED");
        if not ok then List.iter print_endline c.lines;
        not ok)
      ws
  in
  if failures = [] then 0 else 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref "0" in
  let trace_file = ref "" and repeat = ref 0 and quick = ref false and spec_path = ref "BENCHMARK.json" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME[,NAME] run only these workloads");
      ("--seed", Arg.Set_int seed, "N seed for every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure each workload for S seconds (default 25)");
      ("--trace", Arg.Set_string trace, "0|1 run the traced pass for per-layer metrics");
      ("--trace-file", Arg.Set_string trace_file, "FILE write the traced pass's spans as a Chrome trace (implies --trace 1)");
      ("--repeat", Arg.Set_int repeat, "K run every workload K times and print each metric's spread");
      ("--quick", Arg.Set quick, " tiny sizes; check gates and metric names (the test suite runs this)");
      ("--spec", Arg.Set_string spec_path, "FILE the BENCHMARK.json to check against (default ./BENCHMARK.json)");
    ]
  in
  let code =
    try
      Arg.parse args (fun a -> usage "unexpected argument %s" a) "ledger [options]";
      let spec = load_spec !spec_path in
      let traced =
        match !trace with
        | "0" -> !trace_file <> ""
        | "1" -> true
        | t -> usage "--trace takes 0 or 1, not %s" t
      in
      let trace_file = if !trace_file = "" then None else Some !trace_file in
      let ws =
        if !workload = "" then W.all
        else
          List.map
            (fun n ->
              match W.find n with
              | Some w -> w
              | None -> usage "unknown workload %s (have: %s)" n (String.concat ", " spec.workloads))
            (String.split_on_char ',' !workload)
      in
      match ws with
      | [ w ] when !repeat = 0 ->
        run_one w ~seed:!seed ~seconds:!seconds ~traced ~quick:!quick ~trace_file
      | _ when !quick -> run_quick ws ~spec_path:!spec_path
      | _ when !repeat > 0 ->
        run_repeat ws ~k:!repeat ~seed:!seed ~seconds:!seconds ~traced ~spec_path:!spec_path ~spec
      | _ -> run_all ws ~seed:!seed ~seconds:!seconds ~traced ~spec_path:!spec_path ~trace_file
    with Usage msg ->
      prerr_endline ("ledger: " ^ msg);
      2
  in
  exit code
