(* The optlsim command-line front end: boot the full-system rsync
   benchmark (or a synthetic compute workload) under a chosen core model
   and machine configuration, with PTLsim-style command lists.

     optlsim rsync --core ooo --machine k8 --files 24
     optlsim compute --commands="-core ooo -run -stopinsns 100k : -native"
     optlsim stats   # list core models and machine configs

   One grammar: each subcommand's term composes only the flags it
   honours, so cmdliner refuses every other flag by construction. Each
   single-flag constraint is a converter on its Arg; the few cross-flag
   rules are checked with Term.ret in the term that owns them. Either
   way a bad command line is a usage error (exit 1) before any machine
   is built, and the run functions receive checked, typed values. *)

open Ptlsim
open Cmdliner
module Trace = Ptl_trace.Trace

(* ---------- argument converters ---------- *)

(* A converter from a partial parser; [expected] words the usage error. *)
let conv_of ~expected parse print =
  Arg.conv'
    ( (fun s ->
        match parse s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "invalid value '%s', expected %s" s expected)),
      print )

let int_where ~expected ok =
  conv_of ~expected
    (fun s -> Option.bind (int_of_string_opt s) (fun n -> if ok n then Some n else None))
    Format.pp_print_int

let nat = int_where ~expected:"an integer >= 0" (fun n -> n >= 0)
let pos_int = int_where ~expected:"an integer >= 1" (fun n -> n >= 1)

(* A worker count; 0 = one per recommended host core, resolved here. *)
let jobs_conv =
  conv_of ~expected:"a worker count >= 1, or 0 for one per host core"
    (fun s ->
      match int_of_string_opt s with
      | Some 0 -> Some (Stdlib.Domain.recommended_domain_count ())
      | Some n when n > 0 -> Some n
      | _ -> None)
    Format.pp_print_int

(* A comma-separated class list; the owning library raises on unknown names. *)
let classes_conv parse name =
  Arg.conv'
    ( (fun s -> try Ok (parse s) with Invalid_argument msg -> Error msg),
      fun ppf cs -> Format.pp_print_string ppf (String.concat "," (List.map name cs)) )

(* A cross-flag rule's verdict: an [Error] is a usage error (exit 1). *)
let checked = function Ok v -> `Ok v | Error msg -> `Error (false, msg)

let ( let* ) = Result.bind

(* ---------- pipeline event tracing (--trace family) ---------- *)

type trace_opts = {
  t_on : bool;
  t_start : int option;  (* begin capture at this cycle *)
  t_stop : int option;  (* end of the capture window *)
  t_rip : int64 option;  (* restrict to one instruction address *)
  t_classes : Trace.cls list;  (* event classes to capture *)
  t_buf : int;  (* ring capacity in events *)
  t_trigger : Trace.trigger option;  (* None = immediate *)
  t_out : (string * string) list;  (* sinks: format, path *)
  t_stream : (string * string) option;  (* incremental sink *)
  t_timeline : int;  (* per-uop timeline rows to print, 0 = off *)
}

let trace_requested o =
  o.t_on || o.t_out <> [] || o.t_stream <> None || o.t_timeline > 0

(* A sink spec is [format:]path; the format defaults from the extension
   (.json -> chrome, .csv -> csv, else text). path "-" is stdout. *)
let sink_conv =
  let parse spec =
    let format, path =
      match String.index_opt spec ':' with
      | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
      | None when Filename.check_suffix spec ".json" -> ("chrome", spec)
      | None when Filename.check_suffix spec ".csv" -> ("csv", spec)
      | None -> ("text", spec)
    in
    if List.mem format [ "text"; "chrome"; "csv" ] then Ok (format, path)
    else Error (Printf.sprintf "unknown sink format %S (expected text, chrome or csv)" format)
  in
  Arg.conv' (parse, fun ppf (f, p) -> Format.fprintf ppf "%s:%s" f p)

let trigger_conv =
  let cycle s = Option.bind (int_of_string_opt s) (fun n -> if n >= 0 then Some n else None) in
  conv_of ~expected:"immediate, cycle:N, mispredict or sample"
    (fun s ->
      match String.lowercase_ascii s with
      | "immediate" -> Some None
      | "mispredict" -> Some (Some Trace.On_mispredict)
      | "sample" -> Some (Some Trace.On_sample)
      | s when String.starts_with ~prefix:"cycle:" s ->
        Option.map
          (fun n -> Some (Trace.At_cycle n))
          (cycle (String.sub s 6 (String.length s - 6)))
      | _ -> None)
    (fun ppf -> function
      | None | Some Trace.Immediate -> Format.pp_print_string ppf "immediate"
      | Some Trace.On_mispredict -> Format.pp_print_string ppf "mispredict"
      | Some Trace.On_sample -> Format.pp_print_string ppf "sample"
      | Some (Trace.At_cycle n) -> Format.fprintf ppf "cycle:%d" n)

(* An environment error: exit 1 with a message. *)
let fleet_err msg =
  prerr_endline ("optlsim: " ^ msg);
  exit 1

(* Every output path is opened (a directory: created) before any
   simulation runs, so an unwritable one is an environment error rather
   than an uncaught exception once the run is over. *)
let cannot_write path reason =
  (* Sys_error messages usually repeat the path: "PATH: REASON" *)
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix reason then
      String.sub reason (String.length prefix)
        (String.length reason - String.length prefix)
    else reason
  in
  fleet_err (Printf.sprintf "cannot write %s: %s" path reason)

let open_output path =
  if path = "-" then stdout
  else try open_out path with Sys_error reason -> cannot_write path reason

let ensure_dir dir =
  match Sys.is_directory dir with
  | true -> ()
  | false -> cannot_write dir "Not a directory"
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755 with Sys_error reason -> cannot_write dir reason)

(* the channel behind --trace-stream, owned here; the trace module only
   borrows it while the streaming sink is attached *)
let stream_channel : (string * out_channel) option ref = ref None

(* the --trace-out sinks, opened by setup_trace and written at the end *)
let sink_channels : (string * string * out_channel) list ref = ref []

let setup_trace o =
  if trace_requested o then begin
    Trace.configure ~capacity:o.t_buf ?start_cycle:o.t_start
      ?stop_cycle:o.t_stop ?rip:o.t_rip ~classes:o.t_classes ?trigger:o.t_trigger
      ();
    sink_channels :=
      List.map (fun (format, path) -> (format, path, open_output path)) o.t_out;
    Option.iter
      (fun (format, path) ->
        let oc = open_output path in
        (* the sink's finalizer owns channel teardown so every exit path —
           including the Sim_failure unwind — leaves a complete file *)
        Trace.stream_to
          ~on_stop:(fun () ->
            if path <> "-" then close_out oc else flush oc;
            stream_channel := None)
          (* every sink format streams *)
          (Option.get (Trace.stream_format_of_name format))
          oc;
        stream_channel := Some (path, oc))
      o.t_stream
  end

let write_sink (format, path, oc) =
  (match format with
  | "text" -> Trace.dump_text oc
  | "chrome" -> Trace.dump_chrome oc
  | _ -> Trace.dump_csv oc);
  if path <> "-" then close_out oc else flush oc;
  Printf.printf "trace: wrote %s sink to %s\n" format path

let finish_trace o stats =
  if !Trace.on then begin
    (match !stream_channel with
    | Some (path, _) ->
      Trace.stream_stop () (* finalizes and closes via on_stop *);
      Printf.printf "trace: streamed %d events to %s\n" (Trace.captured ())
        path
    | None -> ());
    Printf.printf "trace: %d events in window (%d captured, %d lost to wraparound)\n"
      (Trace.length ()) (Trace.captured ()) (Trace.overwritten ());
    List.iter write_sink !sink_channels;
    (* Cross-check: every committed x86 instruction emits exactly one
       tagged commit event, so with an unwrapped, unfiltered window the
       trace must agree with the counter tree. A restricted capture
       (window, trigger, rip or class filter) can never match, so skip. *)
    let unrestricted =
      o.t_start = None && o.t_stop = None && o.t_rip = None
      && o.t_classes = Trace.all_classes && o.t_trigger = None
    in
    let counter = Statstree.get stats "ooo.commit.insns" in
    let commits = Trace.commits ~tag:"ooo" () in
    if counter > 0 && unrestricted then
      Printf.printf "trace: ooo commit events=%d vs ooo.commit.insns=%d%s\n"
        commits counter
        (if commits = counter then " (match)"
         else if Trace.overwritten () > 0 then " (window wrapped)"
         else " (MISMATCH)");
    if o.t_timeline > 0 then begin
      Printf.printf "trace: per-uop timelines (first %d):\n" o.t_timeline;
      Trace.render_timeline ~limit:o.t_timeline stdout
    end;
    Trace.disable ()
  end

let trace_filter_arg =
  Arg.(
    value
    & opt (classes_conv Trace.parse_classes Trace.class_name) Trace.all_classes
    & info [ "trace-filter" ] ~docv:"CLASSES" ~absent:"all"
        ~doc:
          "Comma-separated event classes to capture: pipe, commit, cache, \
           tlb, bb, bpred. Default: all.")

let trace_buf_arg default =
  Arg.(
    value & opt pos_int default
    & info [ "trace-buf" ] ~docv:"EVENTS"
        ~doc:"Ring buffer capacity; older events are overwritten when full.")

let trace_term =
  let flag_on =
    Arg.(value & flag & info [ "trace" ] ~doc:"Enable pipeline event tracing.")
  in
  let start =
    Arg.(
      value
      & opt (some nat) None
      & info [ "trace-start" ] ~docv:"CYCLE"
          ~doc:"Start capturing at the given cycle (PTLsim -startlog).")
  in
  let stop =
    Arg.(
      value
      & opt (some nat) None
      & info [ "trace-stop" ] ~docv:"CYCLE" ~doc:"Stop capturing at the given cycle.")
  in
  let rip =
    Arg.(
      value
      & opt
          (some
             (conv_of ~expected:"an instruction address such as 0x401000"
                Int64.of_string_opt (fun ppf -> Format.fprintf ppf "0x%Lx")))
          None
      & info [ "trace-rip" ] ~docv:"RIP"
          ~doc:"Only capture events for this instruction address (e.g. 0x401000).")
  in
  let trigger =
    Arg.(
      value & opt trigger_conv None
      & info [ "trace-trigger" ] ~docv:"WHEN"
          ~doc:
            "When capture begins: immediate (default), cycle:N, mispredict, \
             or sample (the first measured sampling interval).")
  in
  let out =
    Arg.(
      value & opt_all sink_conv []
      & info [ "trace-out" ] ~docv:"[FMT:]PATH"
          ~doc:
            "Write the captured window to a sink: text:PATH, chrome:PATH \
             (Perfetto-loadable JSON), or csv:PATH. Repeatable; format \
             defaults from the extension; PATH - is stdout.")
  in
  let stream =
    Arg.(
      value
      & opt (some sink_conv) None
      & info [ "trace-stream" ] ~docv:"[FMT:]PATH"
          ~doc:
            "Also write every accepted event to PATH incrementally during \
             the run (text, csv, or chrome), so a crashed run still leaves \
             a usable trace and long traces survive ring wraparound. \
             Format defaults from the extension; PATH - is stdout.")
  in
  let timeline =
    Arg.(
      value
      & opt nat 0 ~vopt:40
      & info [ "trace-timeline" ] ~docv:"ROWS"
          ~doc:"Print per-uop stage-by-stage timelines for up to ROWS uops.")
  in
  let mk t_on t_start t_stop t_rip t_classes t_buf t_trigger t_out t_stream
      t_timeline =
    { t_on; t_start; t_stop; t_rip; t_classes; t_buf; t_trigger; t_out;
      t_stream; t_timeline }
  in
  Term.(
    const mk $ flag_on $ start $ stop $ rip $ trace_filter_arg
    $ trace_buf_arg (1 lsl 20) $ trigger $ out $ stream $ timeline)

(* ---------- guard rails (--guard family) ---------- *)

(* Exit code for a simulator self-check failure (watchdog lockup or
   structural invariant violation): distinct from usage errors (1) and
   fuzz divergences (2). See README "Guard rails". *)
let exit_sim_failure = 3

(* Exit code for a degraded replay result (serve, replay, sweep,
   --sample-jobs): the run terminated and printed a report, but one or
   more intervals were quarantined, so the estimates cover the
   surviving intervals only. See README "Failure modes & recovery". *)
let exit_degraded = 4

(* Install the guard supervisor on every core instance the domain
   builds (mode switches rebuild the core, so the wrap must be a
   standing decorator rather than a one-shot). *)
let install_guard guard d =
  Option.iter
    (fun config ->
      Domain.set_instance_wrap d (fun inst ->
          Guard.wrap ~config ~env:d.Domain.env ~ctx:d.Domain.ctx inst))
    guard

(* Per-interval guard wrapping for fleet replays: every worker wraps
   its private core instance, so a tripped invariant surfaces as a
   typed Sim_failure (quarantine + degraded report) instead of
   corrupting the merged estimates. *)
let replay_wrap guard =
  Option.map (fun config ~env ~ctx inst -> Guard.wrap ~config ~env ~ctx inst) guard

(* Contain a simulator self-check failure at the driver: render the
   diagnostic bundle once, exit with the documented code. Without this
   the typed fault would escape as an uncaught exception + backtrace. *)
let catch_sim_failure f =
  try f ()
  with Sim_failure.Sim_failure fail ->
    (* finalize the incremental trace sink first: the abnormal exit must
       not leave a truncated stream (a Chrome JSON missing its footer) *)
    (match !stream_channel with
    | Some (path, _) ->
      Trace.stream_stop ();
      Printf.eprintf "trace: stream to %s finalized after failure\n" path
    | None -> ());
    prerr_string (Sim_failure.render fail);
    Printf.eprintf
      "optlsim: simulator self-check failed (%s); exiting %d\n"
      fail.Sim_failure.subsystem exit_sim_failure;
    exit exit_sim_failure

(* The --guard family as a supervisor config, None = unguarded.
   [degrade] says whether the subcommand honours --guard-degrade and
   --guard-checkpoint-every (rollback checkpoints are taken only under
   degrade): only live runs do — fuzzing would make the model its own
   reference, and a replayed interval degraded to the sequential core
   would silently change its measurements (quarantine is the
   containment path). *)
let guard_term ~degrade =
  let flag_on =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Enable guard rails: sampled structural invariant checks \
             (ROB/LSQ ordering, physical-register conservation, \
             issue-queue slot conservation, cache tag/LRU and MSHR \
             consistency, TLB consistency). Failures print a diagnostic \
             bundle and exit 3.")
  in
  let interval =
    Arg.(
      value & opt pos_int 64
      & info [ "guard-interval" ] ~docv:"STEPS"
          ~doc:"Run the invariant sweep every STEPS core steps (default 64).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt nat 1_000_000
      & info [ "guard-checkpoint-every" ] ~docv:"CYCLES"
          ~doc:
            "Cycles between the rollback checkpoints $(b,--guard-degrade) \
             takes (default 1000000); 0 takes one at simulation start \
             only. Without $(b,--guard-degrade) no checkpoint is taken.")
  in
  let degrade_arg =
    Arg.(
      value & flag
      & info [ "guard-degrade" ]
          ~doc:
            "On a self-check failure, roll back to the last checkpoint \
             and finish the run on the sequential reference core instead \
             of exiting (implies $(b,--guard)).")
  in
  let strict_tlb =
    Arg.(
      value & flag
      & info [ "guard-strict-tlb" ]
          ~doc:
            "Arm the vm invariant family on top of $(b,--guard): every \
             cached TLB entry (4K and 2M) and PWC upper-level entry must \
             agree with a fresh page-table walk. Catches stale \
             translations after reclaim, shootdown or promote/split \
             bugs; expensive, so it runs on a longer stride (implies \
             $(b,--guard)).")
  in
  let mk on interval checkpoint_every degrade strict_tlb =
    if on || degrade || strict_tlb then
      Some { Guard.interval; checkpoint_every; degrade; strict_tlb }
    else None
  in
  Term.(
    const mk $ flag_on $ interval
    $ (if degrade then checkpoint_every else const 0)
    $ (if degrade then degrade_arg else const false)
    $ strict_tlb)

(* ---------- sampled simulation (--sample family) ---------- *)

type sample_flags = {
  s_requested : bool;  (* any flag that implies --sample was given *)
  s_period : int option;  (* instructions per ff+warmup+measure period *)
  s_ff : int option;  (* explicit fast-forward length (excludes period) *)
  s_warmup : int;
  s_measure : int;
  s_roi : bool;
  s_jobs : int option;
  s_offset : Sample.placement option;
}

(* A checked sampling plan. *)
type sampling = {
  schedule : Sample.schedule;
  placement : Sample.placement;
  roi : bool;  (* gate on the guest's -startsample/-stopsample region *)
  jobs : int option;  (* checkpoint-parallel workers; None = serial *)
}

(* The rules every sampled run obeys: a timed core, and one consistent
   schedule (Sample.check_flags owns the ff/period arithmetic). *)
let sampling_of ~core f =
  let* () =
    if core = "seq" then
      Error
        "--core seq cannot be sampled: the sequential core has no timed \
         pipeline to measure (pick ooo, smt or inorder)"
    else Ok ()
  in
  let* schedule =
    Sample.check_flags ~ff:f.s_ff ~period:f.s_period ~warmup:f.s_warmup
      ~measure:f.s_measure ()
  in
  let placement = Option.value f.s_offset ~default:Sample.Fixed in
  Ok { schedule; placement; roi = f.s_roi; jobs = f.s_jobs }

(* Run the domain under the sampling supervisor and print its report
   (the sampled replacement for Domain.submit + Domain.run). With
   --sample-jobs the checkpoint-parallel engine replaces the serial
   supervisor (even at 1 job, so job counts are comparable) and, as in
   optlsim replay, a failing interval is quarantined into a DEGRADED
   report. Returns whether any interval was quarantined. *)
let run_sampled s ~max_cycles d =
  let roi = s.roi and placement = s.placement and schedule = s.schedule in
  catch_sim_failure (fun () ->
      match s.jobs with
      | None ->
        Sample.report stdout
          (Sample.run ~roi ~placement ~max_cycles ~schedule d);
        false
      | Some jobs ->
        let rp =
          Fleet.run_parallel ~roi ~placement ~max_cycles ~jobs ~schedule d
        in
        let quarantined = rp.Fleet.rp_quarantined in
        Sample.report_degraded stdout
          ~count:(rp.Fleet.rp_replayed + List.length quarantined)
          ~quarantined rp.Fleet.rp_result;
        quarantined <> [])

(* The --sample family; [jobs] is --sample-jobs where the subcommand
   honours it. *)
let sample_term ~jobs =
  let flag_on =
    Arg.(
      value & flag
      & info [ "sample" ]
          ~doc:
            "Enable sampled simulation: repeat fast-forward (native, with \
             functional cache/TLB/predictor warming), warm-up (timed, \
             unmeasured) and measure (timed, measured) phases, and report \
             the aggregate CPI with a 95% confidence interval.")
  in
  let period =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "sample-period" ] ~docv:"INSNS"
          ~doc:
            "Instructions per sampling period (fast-forward + warm-up + \
             measure; default 1000000). Implies $(b,--sample).")
  in
  let ff =
    Arg.(
      value
      & opt (some nat) None
      & info [ "sample-ff" ] ~docv:"INSNS"
          ~doc:
            "Explicit fast-forward length per period (mutually exclusive \
             with $(b,--sample-period)). Implies $(b,--sample).")
  in
  let warmup =
    Arg.(
      value
      & opt nat Sample.default_warmup
      & info [ "sample-warmup" ] ~docv:"INSNS"
          ~doc:
            "Timed but unmeasured instructions before each measured \
             interval (default 20000).")
  in
  let measure =
    Arg.(
      value
      & opt pos_int Sample.default_measure
      & info [ "sample-measure" ] ~docv:"INSNS"
          ~doc:"Measured instructions per interval (default 30000).")
  in
  let roi =
    Arg.(
      value & flag
      & info [ "sample-roi" ]
          ~doc:
            "Only schedule sampling periods while the guest's \
             -startsample/-stopsample ptlcall region is open (fast-forward \
             and warming continue outside it). Implies $(b,--sample).")
  in
  let offset =
    Arg.(
      value
      & opt
          (some
             (Arg.conv'
                (Sample.parse_placement, fun ppf p ->
                  Format.pp_print_string ppf (Sample.placement_to_string p))))
          None
      & info [ "sample-offset" ] ~docv:"SPEC"
          ~doc:
            "Where each period's measured window sits: fixed (default, \
             window closes the period), rand:SEED (uniform random offset \
             per period, breaking phase aliasing), or stratified \
             (deterministic sweep across the period). Implies \
             $(b,--sample).")
  in
  let mk on s_period s_ff s_warmup s_measure s_roi s_jobs s_offset =
    let s_requested =
      on || s_period <> None || s_ff <> None || s_roi || s_jobs <> None
      || s_offset <> None
    in
    { s_requested; s_period; s_ff; s_warmup; s_measure; s_roi; s_jobs; s_offset }
  in
  Term.(
    const mk $ flag_on $ period $ ff $ warmup $ measure $ roi $ jobs $ offset)

let sample_jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "sample-jobs" ] ~docv:"N"
        ~doc:
          "Checkpoint-parallel sampling: one native pass captures a base \
           image and a delta checkpoint (dirty pages, architectural \
           state, changed caches/TLBs/predictor) at each measured \
           window, then N worker domains replay the intervals on private \
           state. The merged report is bit-identical for any N; N = 0 \
           auto-detects the host core count. A failing interval is \
           quarantined (DEGRADED report, exit 4). Needs a bare-machine \
           workload ($(b,compute --bare)). Implies $(b,--sample).")

(* ---------- machines and cores ---------- *)

(* the machine configs --machine accepts and optlsim stats lists *)
let machines =
  [ ("k8", Config.k8_ptlsim); ("k8-ptlsim", Config.k8_ptlsim);
    ("k8-silicon", Config.k8_silicon); ("tiny", Config.tiny) ]

let machine_arg ~default =
  Arg.(
    value & opt (enum machines) default
    & info [ "machine" ] ~docv:"NAME"
        ~doc:("Machine config: " ^ doc_alts_enum machines ^ "."))

let core_names = List.sort compare (Registry.names ())

(* [timed]: the subcommand needs a timed core, so seq is not offered *)
let core_arg ~timed =
  let names = List.filter (fun n -> not (timed && n = "seq")) core_names in
  let alts = List.map (fun n -> (n, n)) names in
  Arg.(
    value & opt (enum alts) "ooo"
    & info [ "core" ] ~docv:"MODEL"
        ~doc:
          ("Core model: " ^ doc_alts_enum alts
          ^ if timed then " (seq is the reference and cannot be picked)." else "."))

let max_mcycles_arg =
  Arg.(value & opt nat 8000 & info [ "max-mcycles" ] ~doc:"Cycle budget, in millions.")

let print_summary d k =
  let st = d.Domain.env.Env.stats in
  Printf.printf "cycles (domain):      %d\n" (Statstree.get st "domain.cycles");
  Printf.printf "instructions:         %d\n" (Domain.insns d);
  Printf.printf "mode switches:        %d\n" (Statstree.get st "domain.mode_switches");
  let total = float_of_int (max 1 (Statstree.get st "domain.cycles")) in
  let pct p = 100.0 *. float_of_int (Statstree.get st p) /. total in
  Printf.printf "user/kernel/idle:     %.1f%% / %.1f%% / %.1f%%\n"
    (pct "domain.cycles_in_mode.user")
    (pct "domain.cycles_in_mode.kernel")
    (pct "domain.cycles_in_mode.idle");
  List.iter
    (fun p ->
      let v = Statstree.get st p in
      if v > 0 then Printf.printf "%-22s%d\n" (p ^ ":") v)
    [ "ooo.commit.insns"; "ooo.commit.uops"; "ooo.commit.mispredicts";
      "ooo.dcache.dtlb_misses"; "ooo.mem.L1D.misses"; "kernel.syscalls";
      "kernel.context_switches"; "kernel.packets"; "kernel.disk_reads";
      "guard.check_passes"; "guard.violations"; "guard.checkpoints";
      "guard.rollbacks"; "guard.degraded" ];
  (match k with
  | Some k ->
    Printf.printf "shutdown:             %b\n" (Kernel.is_shutdown k)
  | None -> ());
  Printf.printf "phase markers:        %s\n"
    (String.concat " "
       (List.map (fun (m, c) -> Printf.sprintf "%d@%d" m c) (Domain.markers d)))

(* ---------- timed runs (rsync, compute) ---------- *)

type run_opts = {
  core : string;
  machine : Config.t;
  commands : string;
  max_cycles : int;
  trace : trace_opts;
  guard : Guard.config option;
  sampling : sampling option;
  bare : bool;  (* no minios kernel (compute --bare) *)
}

(* Every flag family of a timed run, with the cross-flag rules checked.
   [bare] says whether the subcommand offers --bare, and with it
   --sample-jobs: parallel replay needs a checkpointable bare machine. *)
let run_term ~bare =
  let commands =
    Arg.(
      value
      & opt string "-run"
      & info [ "commands" ] ~doc:"PTLsim-style command list (e.g. \"-core ooo -run\").")
  in
  let bare_arg =
    Arg.(
      value & flag
      & info [ "bare" ]
          ~doc:
            "Run the compute workload on a bare machine (no minios kernel): \
             the loop ends in hlt instead of a syscall. Required for \
             $(b,--sample-jobs) — host-side kernel state is not \
             checkpointable.")
  in
  let mk trace guard flags core machine commands max_mcycles bare =
    let sampling =
      if not flags.s_requested then Ok None
      else if commands <> "-run" then
        Error
          "--sample-* cannot be combined with --commands: the sampling \
           supervisor owns the run schedule (use --sample-roi with guest \
           -startsample/-stopsample ptlcalls to scope it)"
      else if Option.fold ~none:false ~some:(fun g -> g.Guard.degrade) guard then
        Error
          "--sample-* cannot be combined with --guard-degrade: degraded \
           recovery switches core models under the sampler, which would \
           silently change what the measured intervals measure"
      else
        let* s = sampling_of ~core flags in
        match s.jobs with
        | Some _ when not bare ->
          Error
            "--sample-jobs needs --bare: kernel-hosted domains carry \
             host-side minios state (processes, descriptors, pending \
             events) that cannot be checkpointed"
        | Some j when j > 1 && trace_requested trace ->
          Error
            "--sample-jobs above 1 cannot be combined with \
             --trace/--trace-stream/--trace-out/--trace-timeline: the event \
             ring is process-global and parallel workers would interleave \
             in it"
        | _ -> Ok (Some s)
    in
    let max_cycles = max_mcycles * 1_000_000 in
    checked
      (Result.map
         (fun sampling ->
           { core; machine; commands; max_cycles; trace; guard; sampling; bare })
         sampling)
  in
  let bare, jobs =
    if bare then (bare_arg, sample_jobs_arg) else Term.(const false, const None)
  in
  Term.(
    ret
      (const mk $ trace_term $ guard_term ~degrade:true $ sample_term ~jobs
     $ core_arg ~timed:false $ machine_arg ~default:Config.k8_ptlsim $ commands
     $ max_mcycles_arg $ bare))

(* Drive a built domain to completion — under the sampling supervisor or
   the command list; true if a parallel sampled run quarantined an
   interval. *)
let drive o d =
  install_guard o.guard d;
  match o.sampling with
  | Some s -> run_sampled s ~max_cycles:o.max_cycles d
  | None ->
    Domain.submit d o.commands;
    catch_sim_failure (fun () -> ignore (Domain.run ~max_cycles:o.max_cycles d));
    false

let finish o d k ~degraded =
  print_summary d k;
  finish_trace o.trace d.Domain.env.Env.stats;
  if degraded then exit exit_degraded

let run_rsync o files =
  setup_trace o.trace;
  let fileset = { Fileset.default with Fileset.nfiles = files } in
  let d, k =
    Ptlmon.launch
      {
        Ptlmon.default_spec with
        Ptlmon.programs = Rsync_progs.programs ();
        files = Fileset.generate fileset;
        machine_config = o.machine;
        core = o.core;
      }
  in
  let degraded = drive o d in
  Printf.printf "synchronized correctly: %b\n" (Rsync_bench.verify_sync k);
  finish o d (Some k) ~degraded

let run_compute o iters =
  setup_trace o.trace;
  let program = Microbench.compute ~iters ~bare:o.bare in
  let d, k =
    if o.bare then begin
      let m = Machine.create program in
      ( Domain.create ~core:o.core ~config:o.machine m.Machine.env m.Machine.ctx,
        None )
    end
    else begin
      let d, k =
        Ptlmon.launch
          {
            Ptlmon.default_spec with
            Ptlmon.programs = [ ("init", program) ];
            machine_config = o.machine;
            core = o.core;
          }
      in
      (d, Some k)
    end
  in
  finish o d k ~degraded:(drive o d)

(* ---------- virtual-memory scenarios (optlsim vm) ---------- *)

(* TLB-hostile workloads under the lib/vm scenario axes: GUPS random
   updates or streaming sweeps, on a bare machine (optionally with a
   2M-page heap) or demand-paged under minios with the CLOCK reclaimer. *)
let run_vm trace guard core machine (demand, workload, slots) steps bytes
    passes hugepages pwc watermark batch max_mcycles =
  setup_trace trace;
  let config =
    let c = if hugepages then { machine with Config.tlb_hugepages = true } else machine in
    match pwc with None -> c | Some n -> { c with Config.pwc_entries = n }
  in
  let d, k =
    if demand then begin
      let program =
        Microbench.gups ~base:Abi.user_code_base ~heap:Abi.user_heap_base
          ~user:true ~slots ~steps ()
      in
      let kernel_config =
        {
          Kernel.default_config with
          Kernel.demand_paging = true;
          vm_watermark = watermark;
          vm_batch = batch;
        }
      in
      let d, k =
        Ptlmon.launch
          {
            Ptlmon.default_spec with
            Ptlmon.programs = [ ("init", program) ];
            kernel_config;
            machine_config = config;
            core;
          }
      in
      (d, Some k)
    end
    else begin
      let program, heap_pages =
        match workload with
        | `Gups ->
          (Microbench.gups ~slots ~steps (), max 1 ((slots * 8 + 4095) / 4096))
        | `Stream ->
          (Microbench.stream ~bytes ~passes, max 1 ((bytes + 4095) / 4096))
      in
      let m = Machine.create ~heap_pages ~huge_heap:hugepages program in
      ( Domain.create ~core ~config:config m.Machine.env m.Machine.ctx,
        None )
    end
  in
  install_guard guard d;
  let max_cycles = max_mcycles * 1_000_000 in
  Domain.submit d "-run";
  catch_sim_failure (fun () -> ignore (Domain.run ~max_cycles d));
  print_summary d k;
  let st = d.Domain.env.Env.stats in
  let insns = max 1 (Domain.insns d) in
  (* the timed cores register their TLBs under their own prefixes; sum
     so the line is right whichever model ran *)
  let g p = Statstree.get st ("ooo." ^ p) + Statstree.get st ("inorder." ^ p) in
  let dtlb_misses = g "dcache.dtlb_misses" in
  Printf.printf "dtlb MPKI:            %.2f (%d misses / %d accesses)\n"
    (1000.0 *. float_of_int dtlb_misses /. float_of_int insns)
    dtlb_misses (g "dcache.dtlb_accesses");
  List.iter
    (fun p ->
      let v = Statstree.get st p in
      if v > 0 then Printf.printf "%-22s%d\n" (p ^ ":") v)
    [ "vm.faults"; "vm.fills"; "vm.swap_ins"; "vm.swap_outs"; "vm.evictions";
      "vm.shootdowns"; "vm.promotions"; "vm.splits" ];
  finish_trace trace st

(* ---------- differential fuzzing (optlsim fuzz) ---------- *)

let run_fuzz guard trace_classes trace_capacity core config seed iters len
    classes report_dir inject no_oracle =
  Option.iter ensure_dir report_dir;
  let inject_fn = Option.map (fun n -> Fuzz.flags_bug ~after:n) inject in
  let replay_extra =
    (match inject with
    | Some n -> Printf.sprintf " --fuzz-inject %d" n
    | None -> "")
    ^ if no_oracle then " --fuzz-no-oracle" else ""
  in
  (* An injected bug corrupts state between checkpoints, where later
     writes can mask it; per-instruction checkpoints pin it reliably. *)
  let check_every =
    if inject = None then Fuzz.default_check_every else 1
  in
  let progress iter divs =
    if (iter + 1) mod 100 = 0 then
      Printf.printf "fuzz: %d/%d iterations, %d divergences\n%!" (iter + 1)
        iters divs
  in
  (* Under --guard the supervisor rides along inside the cosim loop:
     invariant violations and watchdog lockups become shrinkable,
     reportable findings like any divergence. *)
  let s =
    Fuzz.run ~config ~core ?inject:inject_fn ?guard ~oracle:(not no_oracle)
      ~classes ~len ~check_every ~trace_capacity ~trace_classes ~replay_extra
      ~progress ~seed ~iters ()
  in
  Printf.printf
    "fuzz: seed %d, %d iterations, %d instructions generated, core %s vs \
     seq%s\n"
    s.Fuzz.s_seed s.Fuzz.s_iters s.Fuzz.s_gen_insns s.Fuzz.s_core
    (if no_oracle then "" else " vs oracle");
  if not no_oracle then begin
    Printf.printf "fuzz: %d programs cross-checked against the spec oracle\n"
      s.Fuzz.s_oracle_checked;
    if s.Fuzz.s_oracle_unsupported > 0 then
      Printf.printf
        "fuzz: WARNING: %d programs hit instructions with no spec row (run \
         optlsim conformance --coverage)\n"
        s.Fuzz.s_oracle_unsupported
  end;
  match s.Fuzz.s_divergences with
  | [] -> Printf.printf "fuzz: no divergences\n"
  | ds ->
    Printf.printf "fuzz: %d divergence(s)\n" (List.length ds);
    (match report_dir with
    | Some dir ->
      List.iter
        (fun f -> Printf.printf "fuzz: wrote %s\n" f)
        (Fuzz.write_reports ~dir s)
    | None -> List.iter (fun d -> print_string d.Fuzz.d_report) ds);
    exit 2

(* ---------- the sampling fleet (capture / serve / work / replay) ---------- *)

let fleet_log quiet = if quiet then fun _ -> () else Printf.eprintf "%s\n%!"

(* capture: one native master pass over the bare compute workload,
   journaled to a durable interval store record by record, so an
   interrupted capture resumes from the last valid checkpoint *)
let run_capture_cmd (s, core) config iters max_mcycles store_dir resume =
  let schedule = s.schedule and placement = s.placement in
  let program = Microbench.compute ~iters ~bare:true in
  (* the store key: what program ran, not how it was simulated *)
  let workload = Store.digest_value ("bare-compute", program, iters) in
  let placement_str = Sample.placement_to_string placement in
  (* --resume: adopt the journal's longest valid prefix, but only if it
     was written by an identical capture — a journal from a different
     program, core, machine config, schedule or placement restarts
     fresh rather than splicing incompatible checkpoints together *)
  let partial =
    if not resume then None
    else
      match Store.scan_partial ~dir:store_dir with
      | Error e -> fleet_err (Store.error_to_string e)
      | Ok None ->
        Printf.eprintf "capture: nothing to resume in %s, starting fresh\n%!"
          store_dir;
        None
      | Ok (Some pt)
        when pt.Store.pt_workload <> workload
             || pt.Store.pt_core <> core
             || pt.Store.pt_config_digest <> Store.config_digest config
             || pt.Store.pt_schedule <> schedule
             || pt.Store.pt_placement <> placement_str ->
        Printf.eprintf
          "capture: journal in %s was written by a different capture \
           (workload/core/config/schedule/placement mismatch), starting \
           fresh\n%!"
          store_dir;
        None
      | Ok (Some pt) ->
        let n = pt.Store.pt_resume.Sample.rs_count in
        Printf.eprintf
          "capture: resuming from journaled interval %d (%d already on disk)\n%!"
          (n - 1) n;
        Some pt
  in
  let j =
    match
      Store.begin_capture ~dir:store_dir ~workload ~core ~schedule
        ~placement:placement_str ~config ?resume:partial ()
    with
    | Error e -> fleet_err (Store.error_to_string e)
    | Ok j -> j
  in
  let journal_err e =
    fleet_err ("capture journal: " ^ Store.error_to_string e)
  in
  let on_base b =
    match Store.journal_base j b with Ok () -> () | Error e -> journal_err e
  in
  let on_window index d =
    match Store.journal_interval j ~index d with
    | Ok () -> ()
    | Error e -> journal_err e
  in
  let rs = Option.map (fun pt -> pt.Store.pt_resume) partial in
  let m = Machine.create program in
  let d = Domain.create ~core ~config m.Machine.env m.Machine.ctx in
  let max_cycles = max_mcycles * 1_000_000 in
  let cr =
    catch_sim_failure (fun () ->
        Sample.run_capture ~roi:s.roi ~placement ~max_cycles ~on_base
          ~on_window ?resume:rs ~schedule d)
  in
  match
    Store.finish_capture j ~total_insns:cr.Sample.cr_insns
      ~total_cycles:cr.Sample.cr_cycles
  with
  | Error e -> fleet_err (Store.error_to_string e)
  | Ok st ->
    print_endline (Store.describe st);
    let mf = Store.manifest st in
    Printf.printf
      "capture: delta checkpoints carry %d page bytes vs %d for full \
       images (%.1fx smaller)\n"
      mf.Store.m_delta_bytes mf.Store.m_full_bytes
      (float_of_int mf.Store.m_full_bytes
      /. float_of_int (max 1 mf.Store.m_delta_bytes))

(* serve: hand the store's intervals to worker processes, merge, report.
   stdout carries exactly the Sample.report so it can be byte-compared
   with a --sample-jobs run; progress goes to stderr. *)
let run_serve_cmd store_dir socket lease_timeout max_failures quiet =
  match Store.open_store ~dir:store_dir with
  | Error e -> fleet_err (Store.error_to_string e)
  | Ok store ->
    let log = fleet_log quiet in
    log (Store.describe store);
    let sv =
      catch_sim_failure (fun () ->
          Fleet.serve ~lease_timeout ~max_failures ~log ~socket store)
    in
    let mf = Store.manifest store in
    Sample.report_degraded stdout ~count:mf.Store.m_count
      ~quarantined:sv.Fleet.sv_quarantined sv.Fleet.sv_result;
    flush stdout;
    Printf.eprintf
      "fleet: %d worker(s), %d interval(s) replayed, %d from cache, %d \
       lease(s) re-queued, %d quarantined\n%!"
      sv.Fleet.sv_workers sv.Fleet.sv_replayed sv.Fleet.sv_cached
      sv.Fleet.sv_requeued
      (List.length sv.Fleet.sv_quarantined);
    if sv.Fleet.sv_quarantined <> [] then exit exit_degraded

(* work: one worker process leasing intervals from a server *)
let run_work_cmd guard connect retries chaos quiet =
  Chaos.arm chaos;
  match
    catch_sim_failure (fun () ->
        Fleet.work ~retries ~log:(fleet_log quiet) ?wrap:(replay_wrap guard)
          ~connect ())
  with
  | exception Chaos.Killed point ->
    Printf.eprintf "work: chaos killed at %s\n%!" point;
    exit 1
  | Error msg -> fleet_err msg
  | Ok n -> Printf.printf "work: replayed %d interval(s)\n" n

(* replay: consume a store in-process (no server), cache-aware *)
let run_replay_cmd guard store_dir jobs quiet =
  match Store.open_store ~dir:store_dir with
  | Error e -> fleet_err (Store.error_to_string e)
  | Ok store ->
    let log = fleet_log quiet in
    log (Store.describe store);
    (match
       catch_sim_failure (fun () ->
           Fleet.replay ~jobs ~log ?wrap:(replay_wrap guard) store)
     with
    | Error e -> fleet_err (Store.error_to_string e)
    | Ok rp ->
      let mf = Store.manifest store in
      Sample.report_degraded stdout ~count:mf.Store.m_count
        ~quarantined:rp.Fleet.rp_quarantined rp.Fleet.rp_result;
      flush stdout;
      Printf.eprintf
        "replay: %d from cache, %d replayed on %d job(s), %d quarantined\n%!"
        rp.Fleet.rp_cached rp.Fleet.rp_replayed rp.Fleet.rp_jobs
        (List.length rp.Fleet.rp_quarantined);
      if rp.Fleet.rp_quarantined <> [] then exit exit_degraded)

(* sweep: every leg of a design-space spec over the same store, with
   matched-pair statistics against the store's own configuration *)
let run_sweep_cmd guard store_dir spec jobs quiet =
  match Store.open_store ~dir:store_dir with
  | Error e -> fleet_err (Store.error_to_string e)
  | Ok store -> (
    let log = fleet_log quiet in
    log (Store.describe store);
    match
      catch_sim_failure (fun () ->
          Sweep.run ~jobs ~log ?wrap:(replay_wrap guard) store spec)
    with
    | Error msg -> fleet_err msg
    | Ok report ->
      Sweep.render stdout report;
      flush stdout;
      if Sweep.degraded report <> [] then exit exit_degraded)

let store_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Durable interval store directory (written by $(b,capture)).")

(* a unix socket path within the sun_path budget *)
let socket_conv =
  conv_of
    ~expected:
      (Printf.sprintf "a unix socket path of 1 to %d bytes (e.g. under /tmp)"
         Fleet.max_socket_path)
    (fun s ->
      if s <> "" && String.length s <= Fleet.max_socket_path then Some s else None)
    Format.pp_print_string

let socket_arg =
  Arg.(
    required
    & opt (some socket_conv) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket the job server listens on.")

let connect_arg =
  Arg.(
    required
    & opt (some socket_conv) None
    & info [ "connect" ] ~docv:"PATH"
        ~doc:"Unix socket of the job server to lease intervals from.")

let lease_timeout_arg =
  Arg.(
    value
    & opt
        (conv_of ~expected:"a positive number of seconds"
           (fun s ->
             Option.bind (float_of_string_opt s) (fun x ->
                 if x > 0.0 then Some x else None))
           Format.pp_print_float)
        30.0
    & info [ "lease-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Re-queue an interval if its worker has not delivered within \
           SECONDS (bounds the cost of a dead or wedged worker).")

let max_failures_arg =
  Arg.(
    value & opt pos_int 3
    & info [ "max-failures" ] ~docv:"K"
        ~doc:
          "Quarantine an interval after K failed replay attempts: the run \
           still terminates, the report marks itself DEGRADED and covers \
           the surviving intervals only, and the exit code is 4.")

let connect_retries_arg =
  Arg.(
    value & opt pos_int 50
    & info [ "connect-retries" ] ~docv:"N"
        ~doc:
          "Connection attempts before giving up, with exponential backoff \
           (50ms doubling to a 2s cap, jittered per worker) — lets workers \
           start before the server, and ride out a server restart.")

let chaos_arg =
  Arg.(
    value
    & opt
        (Arg.conv'
           (Chaos.parse, fun ppf rs -> Format.pp_print_string ppf (Chaos.to_string rs)))
        []
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Arm seeded fault injection against this worker's own I/O (for \
           testing the fleet's recovery paths): rules \
           $(i,ACTION@POINT[:HIT]) joined by ';', e.g. \
           \"kill@work.done:2\". Actions: kill, drop, truncate, fail, \
           delay=SECS, flip=BIT.")

let capture_resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume an interrupted capture from its journal: the store \
           directory's PROGRESS record names the valid prefix of interval \
           checkpoints already on disk, and the master pass restarts from \
           the last one instead of from scratch. The resumed store is \
           byte-identical to an uninterrupted capture.")

let replay_jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Replay workers (in-process domains); 0 auto-detects the host \
           core count.")

let fleet_quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress per-interval progress on stderr.")

let files_arg =
  Arg.(value & opt nat 12 & info [ "files" ] ~doc:"Number of files in the rsync set.")

let iters_arg =
  Arg.(
    value
    & opt pos_int 500_000
    & info [ "iters" ] ~doc:"Compute workload loop iterations.")

let vm_workload_arg =
  Arg.(
    value
    & opt (enum [ ("gups", `Gups); ("stream", `Stream) ]) `Gups
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "TLB-hostile workload: $(b,gups) (random read-modify-writes over \
           a large table) or $(b,stream) (linear read-modify-write sweeps).")

let vm_slots_arg =
  Arg.(
    value
    & opt
        (int_where ~expected:"a power of two" (fun n -> n > 0 && n land (n - 1) = 0))
        65536
    & info [ "slots" ] ~docv:"N"
        ~doc:"GUPS table size in 8-byte cells (power of two).")

let vm_steps_arg =
  Arg.(
    value
    & opt pos_int 200_000
    & info [ "steps" ] ~docv:"N" ~doc:"GUPS random updates to perform.")

let vm_bytes_arg =
  Arg.(
    value
    & opt (int_where ~expected:"an integer >= 8" (fun n -> n >= 8)) (1 lsl 20)
    & info [ "bytes" ] ~docv:"BYTES" ~doc:"stream working-set size in bytes.")

let vm_passes_arg =
  Arg.(
    value & opt pos_int 4
    & info [ "passes" ] ~docv:"N" ~doc:"stream sweeps over the working set.")

let vm_hugepages_arg =
  Arg.(
    value & flag
    & info [ "hugepages" ]
        ~doc:
          "Back the bare machine's heap with 2M pages (PDE mappings) and \
           honor them as single TLB entries, multiplying TLB reach 512x.")

let vm_pwc_arg =
  Arg.(
    value
    & opt (some nat) None
    & info [ "pwc" ] ~docv:"ENTRIES"
        ~doc:
          "Override the machine's page-walk-cache geometry: ENTRIES slots \
           per level (0 disables the PWCs; sweepable as pwc.entries).")

let vm_demand_arg =
  Arg.(
    value & flag
    & info [ "demand" ]
        ~doc:
          "Run the workload as a minios user process with a lazily \
           populated address space: every first touch takes a real #PF \
           through the simulated kernel entry path. Implies gups.")

(* --demand runs GUPS as a minios user process, inside its user heap *)
let vm_scenario_term =
  let check demand workload slots =
    let heap_bytes = Abi.user_heap_pages * 4096 in
    checked
      (if demand && workload <> `Gups then
         Error
           "--demand currently supports the gups workload only (stream \
            targets the bare machine's high heap, which minios does not map)"
       else if demand && slots * 8 > heap_bytes then
         Error
           (Printf.sprintf
              "--slots %d needs %d bytes but the minios user heap holds %d"
              slots (slots * 8) heap_bytes)
       else Ok (demand, workload, slots))
  in
  Term.(ret (const check $ vm_demand_arg $ vm_workload_arg $ vm_slots_arg))

let vm_watermark_arg =
  Arg.(
    value & opt nat 0
    & info [ "watermark" ] ~docv:"PAGES"
        ~doc:
          "Resident user-frame budget for the CLOCK reclaimer (0 = \
           unlimited). Reclaimed dirty pages swap out and fault back in, \
           with TLB shootdown IPIs to every core sharing the space.")

let vm_batch_arg =
  Arg.(
    value & opt pos_int 8
    & info [ "batch" ] ~docv:"PAGES"
        ~doc:"Evictions per reclaim pass once over the watermark.")

(* the exit codes every subcommand documents (README "Failure modes &
   recovery"); usage errors of any kind exit 1, see the eval below *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"on a usage error (bad flag, value or flag combination) or an environment error.";
      info 2 ~doc:"when differential fuzzing found a divergence.";
      info exit_sim_failure ~doc:"on a simulator self-check failure.";
      info exit_degraded ~doc:"when a replay quarantined intervals (DEGRADED report).";
      info internal_error ~doc:"on an unexpected internal error (a bug).";
    ]

let vm_cmd =
  Cmd.v
    (Cmd.info "vm" ~exits
       ~doc:
         "Run a TLB-hostile virtual-memory scenario: GUPS or streaming \
          over 4K or 2M pages, with configurable page-walk caches, \
          optionally demand-paged under minios with watermark-driven \
          CLOCK reclaim and TLB shootdowns. Prints DTLB MPKI and the \
          vm.* fault/reclaim counters next to the usual summary."
       ~man:
         [ `S Manpage.s_description;
           `P
             "The scenario axes are sweepable over a captured interval \
              store: pwc.entries, tlb.hugepages, vm.demand_paging, \
              vm.reclaim.watermark and vm.reclaim.batch (see $(b,optlsim \
              sweep)). The trace classes pagefault/tlb record #PF, \
              shootdown and walk-cache events (see $(b,--trace-filter))." ])
    Term.(
      const run_vm $ trace_term $ guard_term ~degrade:true
      $ core_arg ~timed:false $ machine_arg ~default:Config.k8_ptlsim
      $ vm_scenario_term $ vm_steps_arg $ vm_bytes_arg $ vm_passes_arg
      $ vm_hugepages_arg $ vm_pwc_arg $ vm_watermark_arg $ vm_batch_arg
      $ max_mcycles_arg)

let fuzz_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fuzz-seed" ] ~docv:"SEED"
        ~doc:"Master PRNG seed; one seed fully determines the run.")

let fuzz_iters_arg =
  Arg.(
    value & opt pos_int 500
    & info [ "fuzz-iters" ] ~docv:"N" ~doc:"Random programs to generate and co-simulate.")

let fuzz_len_arg =
  Arg.(
    value & opt pos_int 40
    & info [ "fuzz-len" ] ~docv:"SLOTS"
        ~doc:"Instruction bundles (slots) per generated program.")

let fuzz_classes_arg =
  Arg.(
    value
    & opt (classes_conv Fuzzgen.parse_classes Fuzzgen.cls_name) Fuzzgen.all_classes
    & info [ "fuzz-classes" ] ~docv:"CLASSES" ~absent:"all"
        ~doc:
          "Comma-separated instruction classes to draw from: alu, mem, \
           branch, string, lock, muldiv, fp, stack, misc. Default: all.")

let fuzz_report_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fuzz-report-dir" ] ~docv:"DIR"
        ~doc:
          "Write one divergence report file per finding under DIR (created \
           if absent) instead of printing reports to stdout.")

let fuzz_inject_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "fuzz-inject" ] ~docv:"N"
        ~doc:
          "Self-test: plant a mutated-flags-write bug in the model core \
           once N instructions have committed; the harness must catch, \
           shrink and report it (exit 2).")

let fuzz_no_oracle_arg =
  Arg.(
    value & flag
    & info [ "fuzz-no-oracle" ]
        ~doc:
          "Disable the third model: skip the spec-table oracle lockstep \
           cross-check and fall back to two-way seq-vs-timed fuzzing \
           (divergence reports then carry no majority verdict).")

(* Fuzz mode owns the trace subsystem (it arms capture around each
   divergence replay and embeds the window in the report), so of the
   --trace family it takes only the ring size and the class filter. *)
let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "Differential fuzzing: random programs co-simulated three ways — \
          timed core, sequential reference and the spec-table oracle — \
          with delta-debugged shrinking, majority verdicts and \
          trace-backed divergence reports. Exits 2 when divergences are \
          found."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Generates seedable random x86lite-64 programs (weighted over \
              the decoder's supported opcode space), runs each on the \
              chosen timed core and on the sequential reference core from \
              identical initial state, and compares committed \
              register/flag/memory state at instruction-count checkpoints; \
              the same image also runs in lockstep against the independent \
              spec-derived reference interpreter (see $(b,optlsim \
              conformance)). On divergence of either pair, the failing \
              sequence is minimized with delta debugging and re-run with \
              the pipeline event trace armed; the report carries the \
              shrunk program, both architectural states, the trace window \
              leading up to the mismatch, and the majority verdict naming \
              the odd model out." ])
    Term.(
      const run_fuzz $ guard_term ~degrade:false $ trace_filter_arg
      $ trace_buf_arg 4096 $ core_arg ~timed:true
      $ machine_arg ~default:Config.tiny $ fuzz_seed_arg $ fuzz_iters_arg
      $ fuzz_len_arg $ fuzz_classes_arg $ fuzz_report_dir_arg
      $ fuzz_inject_arg $ fuzz_no_oracle_arg)

let rsync_cmd =
  Cmd.v (Cmd.info "rsync" ~exits ~doc:"Run the paper's rsync-over-ssh benchmark")
    Term.(const run_rsync $ run_term ~bare:false $ files_arg)

let compute_cmd =
  Cmd.v (Cmd.info "compute" ~exits ~doc:"Run a synthetic compute workload")
    Term.(const run_compute $ run_term ~bare:true $ iters_arg)

(* capture always samples (the schedule defines the intervals) and is
   the master pass only, so it takes neither --guard nor --sample-jobs *)
let capture_sampling_term =
  let core = core_arg ~timed:false in
  Term.(
    ret
      (const (fun flags core ->
           checked (Result.map (fun s -> (s, core)) (sampling_of ~core flags)))
      $ sample_term ~jobs:(const None) $ core))

let capture_cmd =
  Cmd.v
    (Cmd.info "capture" ~exits
       ~doc:
         "Run the sampled master pass over the bare compute workload and \
          write a durable interval store: a shared base image plus one \
          delta checkpoint (dirty pages + changed uarch components) per \
          measured window. The store outlives this process; replay it \
          with $(b,replay) or distribute it with $(b,serve)/$(b,work).")
    Term.(
      const run_capture_cmd $ capture_sampling_term
      $ machine_arg ~default:Config.k8_ptlsim $ iters_arg $ max_mcycles_arg
      $ store_arg $ capture_resume_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve a captured interval store over a unix-socket work queue: \
          $(b,optlsim work) processes lease intervals, dead workers' \
          leases re-queue after $(b,--lease-timeout), results land in the \
          store's (checkpoint, config) cache, and the merged report — \
          byte-identical to a --sample-jobs run — prints on stdout.")
    Term.(
      const run_serve_cmd $ store_arg $ socket_arg $ lease_timeout_arg
      $ max_failures_arg $ fleet_quiet_arg)

let work_cmd =
  Cmd.v
    (Cmd.info "work" ~exits
       ~doc:
         "Join a sampling fleet: connect to an $(b,optlsim serve) socket, \
          lease intervals, replay each from the store's base + delta \
          checkpoints on private state, and stream results back until the \
          server drains.")
    Term.(
      const run_work_cmd $ guard_term ~degrade:false $ connect_arg
      $ connect_retries_arg $ chaos_arg $ fleet_quiet_arg)

let sweep_spec_arg =
  Arg.(
    required
    & opt
        (some
           (Arg.conv'
              ( (fun s -> Result.map_error Sweep.error_to_string (Sweep.parse s)),
                fun ppf spec -> Format.pp_print_string ppf (Sweep.to_string spec) )))
        None
    & info [ "sweep" ] ~docv:"SPEC"
        ~doc:
          "Design-space spec: axes $(i,KEY=V1,V2,...) separated by a \
           standalone $(b,x), e.g. \"cache.l2.size=256k,1m,4m x \
           bpred=gshare,hybrid\". The cross product of the axes gives the \
           legs; run $(b,sweep) with an unknown key to list the known \
           ones.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:
         "Replay every leg of a design-space spec over the same captured \
          interval store and rank the legs with matched-pair statistics: \
          per-interval CPI deltas against the store's own configuration \
          give paired 95% confidence intervals (common random numbers — \
          far tighter than independent runs), plus win/loss/tie verdicts \
          and a Pareto frontier over CPI, L1D MPKI and an area proxy. \
          Results land in the store's per-config result cache, so \
          re-running a sweep (or widening it) only pays for new legs.")
    Term.(
      const run_sweep_cmd $ guard_term ~degrade:false $ store_arg
      $ sweep_spec_arg $ replay_jobs_arg $ fleet_quiet_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~exits
       ~doc:
         "Replay a captured interval store in this process (no server): \
          cache-aware, optionally parallel across domains, printing the \
          same merged report the fleet produces.")
    Term.(
      const run_replay_cmd $ guard_term ~degrade:false $ store_arg
      $ replay_jobs_arg $ fleet_quiet_arg)

(* ---------- conformance: spec-derived property + exception suites ---------- *)

let run_conformance level coverage_only =
  let cov = Spec.coverage () in
  print_string (Conformance.coverage_to_string cov);
  let cov_ok = cov.Spec.missing = [] in
  if coverage_only then (if not cov_ok then exit 1)
  else begin
    let progress key = Printf.eprintf "  row %-10s\r%!" key in
    let rep = Conformance.run_properties ~level ~progress () in
    Printf.eprintf "%-20s\r%!" "";
    print_string (Conformance.report_to_string rep);
    let exc = Conformance.run_exceptions () in
    print_string (Conformance.exc_report_to_string exc);
    if not cov_ok then exit 1;
    if
      rep.Conformance.p_failures > 0
      || rep.Conformance.p_vacuous > 0
      || exc.Conformance.e_failures <> []
    then exit 2
  end

let conformance_level_arg =
  let doc = "Sweep depth: $(b,full) (every corner operand and form) or \
             $(b,quick) (reduced set)." in
  Arg.(value & opt (enum [ ("full", `Full); ("quick", `Quick) ]) `Full
       & info [ "level" ] ~docv:"LEVEL" ~doc)

let conformance_coverage_arg =
  let doc = "Only report spec coverage of the fuzz-generator opcode set; \
             exit 1 if any generator-reachable opcode has no spec row." in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let conformance_cmd =
  Cmd.v
    (Cmd.info "conformance" ~exits
       ~doc:
         "Run the spec-derived conformance suites: per-row flag-lattice \
          property sweeps over corner operands (oracle vs sequential core \
          in lockstep), table-driven exception triggers (#DE/#GP/#PF \
          prediction vs IDT delivery), and the generator-coverage gap \
          report. Exit 2 on any conformance failure, 1 on a coverage gap.")
    Term.(const run_conformance $ conformance_level_arg $ conformance_coverage_arg)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~exits ~doc:"List registered core models")
    Term.(
      const (fun () ->
          Printf.printf "core models: %s\n" (String.concat ", " core_names);
          Printf.printf "machine configs: %s\n"
            (String.concat ", " (List.map fst machines)))
      $ const ())

(* Every usage error — an unknown flag or bad value (cmdliner's parse
   errors) or a refused flag combination (a Term.ret error) — exits 1,
   like every other flag rejection. *)
let () =
  exit
    (match
       Cmd.eval_value
         (Cmd.group
            (Cmd.info "optlsim" ~exits
               ~doc:"Cycle-accurate full-system x86-64-style simulator")
            [
              rsync_cmd; compute_cmd; vm_cmd; fuzz_cmd; capture_cmd;
              serve_cmd; work_cmd; replay_cmd; sweep_cmd; conformance_cmd;
              stats_cmd;
            ])
     with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> Cmd.Exit.internal_error)
