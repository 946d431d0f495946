(* The optlsim command-line front end: boot the full-system rsync
   benchmark (or a synthetic compute workload) under a chosen core model
   and machine configuration, with PTLsim-style command lists.

     optlsim rsync --core ooo --machine k8 --files 24
     optlsim compute --commands "-core ooo -run -stopinsns 100k : -native"
     optlsim stats   # list core models and machine configs *)

open Ptlsim
open Cmdliner
module Trace = Ptl_trace.Trace

(* ---------- pipeline event tracing (--trace family) ---------- *)

type trace_opts = {
  t_on : bool;
  t_start : int option;  (* begin capture at this cycle *)
  t_stop : int option;  (* end of the capture window *)
  t_rip : string;  (* restrict to one instruction address, "" = all *)
  t_filter : string;  (* comma-separated event classes, "" = all *)
  t_buf : int;  (* ring capacity in events *)
  t_trigger : string;  (* immediate | cycle:N | mispredict *)
  t_out : string list;  (* sink specs: [format:]path *)
  t_stream : string;  (* incremental sink spec, "" = none *)
  t_timeline : int;  (* per-uop timeline rows to print, 0 = off *)
}

let trace_requested o =
  o.t_on || o.t_out <> [] || o.t_stream <> "" || o.t_timeline > 0

(* A sink spec is [format:]path; the format defaults from the extension
   (.json -> chrome, .csv -> csv, else text). path "-" is stdout. *)
let parse_sink spec =
  match String.index_opt spec ':' with
  | Some i ->
    let f = String.sub spec 0 i in
    let p = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match f with
    | "text" | "chrome" | "csv" -> (f, p)
    | _ -> failwith ("unknown trace sink format in " ^ spec))
  | None ->
    let f =
      if Filename.check_suffix spec ".json" then "chrome"
      else if Filename.check_suffix spec ".csv" then "csv"
      else "text"
    in
    (f, spec)

(* the channel behind --trace-stream, owned here; the trace module only
   borrows it while the streaming sink is attached *)
let stream_channel : (string * out_channel) option ref = ref None

let setup_trace o =
  if trace_requested o then begin
    (* reject bad sink specs before burning cycles on the simulation *)
    List.iter (fun s -> ignore (parse_sink s)) o.t_out;
    let trigger =
      match String.lowercase_ascii o.t_trigger with
      | "" | "immediate" -> None
      | "mispredict" -> Some Trace.On_mispredict
      | "sample" -> Some Trace.On_sample
      | s when String.length s > 6 && String.sub s 0 6 = "cycle:" ->
        Some
          (Trace.At_cycle
             (int_of_string (String.sub s 6 (String.length s - 6))))
      | other -> failwith ("unknown --trace-trigger: " ^ other)
    in
    Trace.configure ~capacity:o.t_buf ?start_cycle:o.t_start
      ?stop_cycle:o.t_stop
      ?rip:(if o.t_rip = "" then None else Some (Int64.of_string o.t_rip))
      ~classes:(Trace.parse_classes o.t_filter)
      ?trigger ();
    if o.t_stream <> "" then begin
      let format, path = parse_sink o.t_stream in
      let fmt =
        match Trace.stream_format_of_name format with
        | Some f -> f
        | None -> failwith ("unknown trace stream format in " ^ o.t_stream)
      in
      let oc = if path = "-" then stdout else open_out path in
      (* the sink's finalizer owns channel teardown so every exit path —
         including the Sim_failure unwind — leaves a complete file *)
      Trace.stream_to
        ~on_stop:(fun () ->
          if path <> "-" then close_out oc else flush oc;
          stream_channel := None)
        fmt oc;
      stream_channel := Some (path, oc)
    end
  end

let write_sink spec =
  let format, path = parse_sink spec in
  let oc = if path = "-" then stdout else open_out path in
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
    List.iter write_sink o.t_out;
    (* Cross-check: every committed x86 instruction emits exactly one
       tagged commit event, so with an unwrapped, unfiltered window the
       trace must agree with the counter tree. A restricted capture
       (window, trigger, rip or class filter) can never match, so skip. *)
    let unrestricted =
      o.t_start = None && o.t_stop = None && o.t_rip = "" && o.t_filter = ""
      && (match String.lowercase_ascii o.t_trigger with
         | "" | "immediate" -> true
         | _ -> false)
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

let trace_term =
  let flag_on =
    Arg.(value & flag & info [ "trace" ] ~doc:"Enable pipeline event tracing.")
  in
  let start =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-start" ] ~docv:"CYCLE"
          ~doc:"Start capturing at the given cycle (PTLsim -startlog).")
  in
  let stop =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-stop" ] ~docv:"CYCLE" ~doc:"Stop capturing at the given cycle.")
  in
  let rip =
    Arg.(
      value & opt string ""
      & info [ "trace-rip" ] ~docv:"RIP"
          ~doc:"Only capture events for this instruction address (e.g. 0x401000).")
  in
  let filter =
    Arg.(
      value & opt string ""
      & info [ "trace-filter" ] ~docv:"CLASSES"
          ~doc:
            "Comma-separated event classes to capture: pipe, commit, cache, \
             tlb, bb, bpred. Default: all.")
  in
  let buf =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "trace-buf" ] ~docv:"EVENTS"
          ~doc:"Ring buffer capacity; older events are overwritten when full.")
  in
  let trigger =
    Arg.(
      value & opt string ""
      & info [ "trace-trigger" ] ~docv:"WHEN"
          ~doc:
            "When capture begins: immediate (default), cycle:N, mispredict, \
             or sample (the first measured sampling interval).")
  in
  let out =
    Arg.(
      value & opt_all string []
      & info [ "trace-out" ] ~docv:"[FMT:]PATH"
          ~doc:
            "Write the captured window to a sink: text:PATH, chrome:PATH \
             (Perfetto-loadable JSON), or csv:PATH. Repeatable; format \
             defaults from the extension; PATH - is stdout.")
  in
  let stream =
    Arg.(
      value & opt string ""
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
      & opt int 0 ~vopt:40
      & info [ "trace-timeline" ] ~docv:"ROWS"
          ~doc:"Print per-uop stage-by-stage timelines for up to ROWS uops.")
  in
  let mk t_on t_start t_stop t_rip t_filter t_buf t_trigger t_out t_stream
      t_timeline =
    {
      t_on;
      t_start;
      t_stop;
      t_rip;
      t_filter;
      t_buf;
      t_trigger;
      t_out;
      t_stream;
      t_timeline;
    }
  in
  Term.(
    const mk $ flag_on $ start $ stop $ rip $ filter $ buf $ trigger $ out
    $ stream $ timeline)

(* ---------- guard rails (--guard family) ---------- *)

(* Exit code for a simulator self-check failure (watchdog lockup or
   structural invariant violation): distinct from flag errors (1, or
   124 from cmdliner) and fuzz divergences (2). See README "Guard
   rails". *)
let exit_sim_failure = 3

(* Exit code for a degraded replay result (serve, replay, sweep,
   --sample-jobs): the run terminated and printed a report, but one or
   more intervals were quarantined, so the estimates cover the
   surviving intervals only. See README "Failure modes & recovery". *)
let exit_degraded = 4

type guard_opts = {
  g_on : bool;
  g_interval : int;  (* invariant sweep every N core steps *)
  g_checkpoint_every : int;  (* cycles between snapshots, 0 = start only *)
  g_degrade : bool;  (* roll back + finish on the seq core on failure *)
  g_strict_tlb : bool;  (* TLB/PWC vs pagetable agreement (vm family) *)
}

let guard_requested g = g.g_on || g.g_degrade || g.g_strict_tlb

let guard_config g =
  {
    Guard.interval = max 1 g.g_interval;
    checkpoint_every = g.g_checkpoint_every;
    degrade = g.g_degrade;
    strict_tlb = g.g_strict_tlb;
  }

(* Install the guard supervisor on every core instance the domain
   builds (mode switches rebuild the core, so the wrap must be a
   standing decorator rather than a one-shot). *)
let install_guard g d =
  if guard_requested g then
    Domain.set_instance_wrap d (fun inst ->
        Guard.wrap ~config:(guard_config g) ~env:d.Domain.env
          ~ctx:d.Domain.ctx inst)

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

let guard_term =
  let flag_on =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Enable guard rails: sampled structural invariant checks \
             (ROB/LSQ ordering, physical-register conservation, \
             issue-queue slot conservation, cache tag/LRU and MSHR \
             consistency, TLB consistency) plus periodic checkpoints. \
             Failures print a diagnostic bundle and exit 3.")
  in
  let interval =
    Arg.(
      value & opt int 64
      & info [ "guard-interval" ] ~docv:"STEPS"
          ~doc:"Run the invariant sweep every STEPS core steps (default 64).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "guard-checkpoint-every" ] ~docv:"CYCLES"
          ~doc:
            "Cycles between rollback checkpoints (default 1000000); 0 \
             takes one checkpoint at simulation start only.")
  in
  let degrade =
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
  let mk g_on g_interval g_checkpoint_every g_degrade g_strict_tlb =
    { g_on; g_interval; g_checkpoint_every; g_degrade; g_strict_tlb }
  in
  Term.(
    const mk $ flag_on $ interval $ checkpoint_every $ degrade $ strict_tlb)

(* ---------- sampled simulation (--sample family) ---------- *)

type sample_opts = {
  s_on : bool;
  s_period : int option;  (* instructions per ff+warmup+measure period *)
  s_ff : int option;  (* explicit fast-forward length (excludes period) *)
  s_warmup : int;
  s_measure : int;
  s_roi : bool;  (* gate on the guest's -startsample/-stopsample region *)
  s_jobs : int option;  (* checkpoint-parallel workers; None = serial *)
  s_offset : string;  (* interval placement: fixed | rand:SEED | stratified *)
}

let sample_requested s =
  s.s_on || s.s_period <> None || s.s_ff <> None || s.s_roi
  || s.s_jobs <> None || s.s_offset <> ""

(* Validate the --sample flag combination against the rest of the
   command line and derive the schedule + interval placement;
   None = not sampling. *)
let sample_schedule sample_opts guard_opts ~core ~commands =
  if not (sample_requested sample_opts) then None
  else begin
    if commands <> "-run" then begin
      prerr_endline
        "optlsim: --sample-* cannot be combined with --commands: the \
         sampling supervisor owns the run schedule (use --sample-roi with \
         guest -startsample/-stopsample ptlcalls to scope it)";
      exit 1
    end;
    let placement =
      match Sample.parse_placement sample_opts.s_offset with
      | Ok p -> p
      | Error msg ->
        prerr_endline ("optlsim: " ^ msg);
        exit 1
    in
    match
      Sample.check_flags ~core ~ff:sample_opts.s_ff
        ~period:sample_opts.s_period ~warmup:sample_opts.s_warmup
        ~measure:sample_opts.s_measure ~guard_degrade:guard_opts.g_degrade
        ~fuzz:false ()
    with
    | Error msg ->
      prerr_endline ("optlsim: " ^ msg);
      exit 1
    | Ok schedule -> Some (schedule, placement)
  end

(* Run the domain under the sampling supervisor and print its report
   (the sampled replacement for Domain.submit + Domain.run). With
   --sample-jobs the checkpoint-parallel engine replaces the serial
   supervisor (even at 1 job, so job counts are comparable) and, as in
   optlsim replay, a failing interval is quarantined into a DEGRADED
   report. Returns whether any interval was quarantined. *)
let run_sampled sample_opts ~tracing ~schedule ~placement ~max_cycles d =
  catch_sim_failure (fun () ->
      match sample_opts.s_jobs with
      | None ->
        Sample.report stdout
          (Sample.run ~roi:sample_opts.s_roi ~placement ~max_cycles ~schedule
             d);
        false
      | Some jobs ->
        (* 0 = one replay worker per recommended host core *)
        let jobs =
          if jobs = 0 then Stdlib.Domain.recommended_domain_count () else jobs
        in
        (match
           Sample.check_jobs ~jobs ~kernel:(d.Domain.kernel <> None) ~tracing ()
         with
        | Error msg ->
          prerr_endline ("optlsim: " ^ msg);
          exit 1
        | Ok () -> ());
        let rp =
          Fleet.run_parallel ~roi:sample_opts.s_roi ~placement ~max_cycles
            ~jobs ~schedule d
        in
        let quarantined = rp.Fleet.rp_quarantined in
        Sample.report_degraded stdout
          ~count:(rp.Fleet.rp_replayed + List.length quarantined)
          ~quarantined rp.Fleet.rp_result;
        quarantined <> [])

let sample_term =
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
      & opt (some int) None
      & info [ "sample-period" ] ~docv:"INSNS"
          ~doc:
            "Instructions per sampling period (fast-forward + warm-up + \
             measure; default 1000000). Implies $(b,--sample).")
  in
  let ff =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-ff" ] ~docv:"INSNS"
          ~doc:
            "Explicit fast-forward length per period (mutually exclusive \
             with $(b,--sample-period)). Implies $(b,--sample).")
  in
  let warmup =
    Arg.(
      value
      & opt int Sample.default_warmup
      & info [ "sample-warmup" ] ~docv:"INSNS"
          ~doc:
            "Timed but unmeasured instructions before each measured \
             interval (default 20000).")
  in
  let measure =
    Arg.(
      value
      & opt int Sample.default_measure
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
  let jobs =
    Arg.(
      value
      & opt (some int) None
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
  in
  let offset =
    Arg.(
      value & opt string ""
      & info [ "sample-offset" ] ~docv:"SPEC"
          ~doc:
            "Where each period's measured window sits: fixed (default, \
             window closes the period), rand:SEED (uniform random offset \
             per period, breaking phase aliasing), or stratified \
             (deterministic sweep across the period). Implies \
             $(b,--sample).")
  in
  let mk s_on s_period s_ff s_warmup s_measure s_roi s_jobs s_offset =
    { s_on; s_period; s_ff; s_warmup; s_measure; s_roi; s_jobs; s_offset }
  in
  Term.(
    const mk $ flag_on $ period $ ff $ warmup $ measure $ roi $ jobs $ offset)

let machine_of_name = function
  | "k8" | "k8-ptlsim" -> Config.k8_ptlsim
  | "k8-silicon" -> Config.k8_silicon
  | "tiny" -> Config.tiny
  | other -> failwith ("unknown machine config: " ^ other)

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

let run_rsync trace_opts guard_opts sample_opts core machine files commands
    max_mcycles =
  let sampled = sample_schedule sample_opts guard_opts ~core ~commands in
  setup_trace trace_opts;
  let fileset = { Fileset.default with Fileset.nfiles = files } in
  let d, k =
    Ptlmon.launch
      {
        Ptlmon.default_spec with
        Ptlmon.programs = Rsync_progs.programs ();
        files = Fileset.generate fileset;
        machine_config = machine_of_name machine;
        core;
      }
  in
  install_guard guard_opts d;
  let max_cycles = max_mcycles * 1_000_000 in
  let degraded =
    match sampled with
    | Some (schedule, placement) ->
      run_sampled sample_opts ~tracing:(trace_requested trace_opts) ~schedule
        ~placement ~max_cycles d
    | None ->
      Domain.submit d commands;
      catch_sim_failure (fun () -> ignore (Domain.run ~max_cycles d));
      false
  in
  Printf.printf "synchronized correctly: %b\n" (Rsync_bench.verify_sync k);
  print_summary d (Some k);
  finish_trace trace_opts d.Domain.env.Env.stats;
  if degraded then exit exit_degraded

(* The synthetic compute workload shared by the compute and capture
   subcommands: a pointer-chasing increment loop with a multiplicative
   PRNG, ending in hlt (bare) or a marker + exit syscall (kernel). *)
let compute_program ~iters ~bare =
  let g = Gasm.create () in
  Gasm.jmp g "main";
  Gasm.label g "main";
  Gasm.li g Gasm.rbp (if bare then Machine.heap_base else Abi.user_heap_base);
  Gasm.lii g Gasm.rcx iters;
  Gasm.label g "top";
  Gasm.ld g Gasm.rax ~base:Gasm.rbp ();
  Gasm.addi g Gasm.rax 1;
  Gasm.st g ~base:Gasm.rbp Gasm.rax ();
  Gasm.imuli g Gasm.rbx 1103515245;
  Gasm.addi g Gasm.rbx 12345;
  Gasm.dec g Gasm.rcx;
  Gasm.jne g "top";
  if bare then
    (* no kernel to receive syscalls: halt the VCPU to end the run *)
    Gasm.ins g Insn.Hlt
  else begin
    Gasm.sys_marker g 999;
    Gasm.sys_exit g 0
  end;
  Gasm.assemble g

let run_compute trace_opts guard_opts sample_opts core machine commands
    max_mcycles iters bare =
  let sampled = sample_schedule sample_opts guard_opts ~core ~commands in
  setup_trace trace_opts;
  let program = compute_program ~iters ~bare in
  let d, k =
    if bare then begin
      let m = Machine.create program in
      ( Domain.create ~core ~config:(machine_of_name machine) m.Machine.env
          m.Machine.ctx,
        None )
    end
    else begin
      let env = Env.create () in
      let ctx = Context.create ~vcpu_id:0 in
      let k = Kernel.create env ctx in
      Kernel.register_program k ~name:"init" program;
      Kernel.boot k;
      ( Domain.create ~kernel:k ~core ~config:(machine_of_name machine) env ctx,
        Some k )
    end
  in
  install_guard guard_opts d;
  let max_cycles = max_mcycles * 1_000_000 in
  let degraded =
    match sampled with
    | Some (schedule, placement) ->
      run_sampled sample_opts ~tracing:(trace_requested trace_opts) ~schedule
        ~placement ~max_cycles d
    | None ->
      Domain.submit d commands;
      catch_sim_failure (fun () -> ignore (Domain.run ~max_cycles d));
      false
  in
  print_summary d k;
  finish_trace trace_opts d.Domain.env.Env.stats;
  if degraded then exit exit_degraded

(* ---------- virtual-memory scenarios (optlsim vm) ---------- *)

let vm_err msg =
  prerr_endline ("optlsim vm: " ^ msg);
  exit 1

(* TLB-hostile workloads under the lib/vm scenario axes: GUPS random
   updates or streaming sweeps, on a bare machine (optionally with a
   2M-page heap) or demand-paged under minios with the CLOCK reclaimer. *)
let run_vm trace_opts guard_opts core machine workload slots steps bytes
    passes hugepages pwc demand watermark batch max_mcycles =
  setup_trace trace_opts;
  let config =
    let c = machine_of_name machine in
    let c = if hugepages then { c with Config.tlb_hugepages = true } else c in
    match pwc with None -> c | Some n -> { c with Config.pwc_entries = n }
  in
  let d, k =
    if demand then begin
      if workload <> "gups" then
        vm_err
          "--demand currently supports the gups workload only (stream \
           targets the bare machine's high heap, which minios does not map)";
      let heap_bytes = Abi.user_heap_pages * 4096 in
      if slots * 8 > heap_bytes then
        vm_err
          (Printf.sprintf
             "--slots %d needs %d bytes but the minios user heap holds %d"
             slots (slots * 8) heap_bytes);
      let program =
        Microbench.gups ~base:Abi.user_code_base ~heap:Abi.user_heap_base
          ~user:true ~slots ~steps ()
      in
      let env = Env.create () in
      let ctx = Context.create ~vcpu_id:0 in
      let kc =
        {
          Kernel.default_config with
          Kernel.demand_paging = true;
          vm_watermark = watermark;
          vm_batch = batch;
        }
      in
      let k = Kernel.create ~config:kc env ctx in
      Kernel.register_program k ~name:"init" program;
      Kernel.boot k;
      (Domain.create ~kernel:k ~core ~config env ctx, Some k)
    end
    else begin
      let program, heap_pages =
        match workload with
        | "gups" ->
          (Microbench.gups ~slots ~steps (), max 1 ((slots * 8 + 4095) / 4096))
        | "stream" ->
          (Microbench.stream ~bytes ~passes, max 1 ((bytes + 4095) / 4096))
        | other -> vm_err ("unknown workload: " ^ other ^ " (gups, stream)")
      in
      let m = Machine.create ~heap_pages ~huge_heap:hugepages program in
      ( Domain.create ~core ~config:config m.Machine.env m.Machine.ctx,
        None )
    end
  in
  install_guard guard_opts d;
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
  finish_trace trace_opts st

(* ---------- differential fuzzing (optlsim fuzz) ---------- *)

let run_fuzz trace_opts guard_opts sample_opts core machine seed iters len
    classes report_dir inject no_oracle =
  let o = trace_opts in
  if sample_requested sample_opts then begin
    prerr_endline
      "optlsim fuzz: --sample-* cannot be combined with the fuzz \
       subcommand: fuzzing cosimulates every instruction on both engines, \
       so there is nothing to fast-forward";
    exit 1
  end;
  match
    Fuzz.check_flags ~iters ~len ~classes ~core ~inject
      ~guard_degrade:guard_opts.g_degrade ~trace_start:o.t_start
      ~trace_stop:o.t_stop ~trace_rip:o.t_rip ~trace_trigger:o.t_trigger
      ~trace_out:o.t_out ~trace_timeline:o.t_timeline ()
  with
  | Error msg ->
    prerr_endline ("optlsim fuzz: " ^ msg);
    exit 1
  | Ok () ->
    let classes = Fuzzgen.parse_classes classes in
    let config = machine_of_name machine in
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
    let trace_capacity = if o.t_buf = 1 lsl 20 then 4096 else o.t_buf in
    let progress iter divs =
      if (iter + 1) mod 100 = 0 then
        Printf.printf "fuzz: %d/%d iterations, %d divergences\n%!" (iter + 1)
          iters divs
    in
    (* Under --guard the supervisor rides along inside the cosim loop:
       invariant violations and watchdog lockups become shrinkable,
       reportable findings like any divergence. *)
    let guard =
      if guard_requested guard_opts then Some (guard_config guard_opts)
      else None
    in
    let s =
      Fuzz.run ~config ~core ?inject:inject_fn ?guard ~oracle:(not no_oracle)
        ~classes ~len ~check_every ~trace_capacity
        ~trace_classes:(Trace.parse_classes o.t_filter) ~replay_extra
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
    (match s.Fuzz.s_divergences with
    | [] -> Printf.printf "fuzz: no divergences\n"
    | ds ->
      Printf.printf "fuzz: %d divergence(s)\n" (List.length ds);
      (match report_dir with
      | Some dir ->
        List.iter
          (fun f -> Printf.printf "fuzz: wrote %s\n" f)
          (Fuzz.write_reports ~dir s)
      | None -> List.iter (fun d -> print_string d.Fuzz.d_report) ds);
      exit 2)

(* ---------- the sampling fleet (capture / serve / work / replay) ---------- *)

let fleet_err msg =
  prerr_endline ("optlsim: " ^ msg);
  exit 1

let fleet_log quiet = if quiet then fun _ -> () else Printf.eprintf "%s\n%!"

(* Per-interval guard wrapping for fleet replays: every worker wraps
   its private core instance, so a tripped invariant surfaces as a
   typed Sim_failure (quarantine + degraded report) instead of
   corrupting the merged estimates. --guard-degrade is refused here:
   silently finishing a window on the sequential core would change its
   measurements with no mark in the report. *)
let fleet_guard_wrap ~cmd g =
  if not (guard_requested g) then None
  else if g.g_degrade then
    fleet_err
      (Printf.sprintf
         "--guard-degrade cannot be combined with %s: degrading an \
          interval to the sequential core would silently change its \
          measurements; quarantine (exit %d) is the containment path"
         cmd exit_degraded)
  else
    Some
      (fun ~env ~ctx inst -> Guard.wrap ~config:(guard_config g) ~env ~ctx inst)

(* capture: one native master pass over the bare compute workload,
   journaled to a durable interval store record by record, so an
   interrupted capture resumes from the last valid checkpoint *)
let run_capture_cmd guard_opts sample_opts core machine iters max_mcycles
    store_dir resume =
  (match Fleet.check_capture ~store:store_dir ~jobs:sample_opts.s_jobs () with
  | Error msg -> fleet_err msg
  | Ok () -> ());
  let sample_opts = { sample_opts with s_on = true } in
  let schedule, placement =
    match sample_schedule sample_opts guard_opts ~core ~commands:"-run" with
    | Some sp -> sp
    | None -> assert false (* s_on forces sampling *)
  in
  let program = compute_program ~iters ~bare:true in
  let config = machine_of_name machine in
  (* the store key: what program ran, not how it was simulated *)
  let workload = Store.digest_value ("bare-compute", program, iters) in
  let placement_str =
    if sample_opts.s_offset = "" then "fixed" else sample_opts.s_offset
  in
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
        Printf.eprintf
          "capture: resuming from journaled interval %d (%d already on disk)\n%!"
          (pt.Store.pt_count - 1) pt.Store.pt_count;
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
  let on_window (w : Sample.window) =
    match
      Store.journal_interval j ~index:w.Sample.w_index
        ~delta_bytes:w.Sample.w_delta_bytes ~full_bytes:w.Sample.w_full_bytes
        w.Sample.w_delta
    with
    | Ok () -> ()
    | Error e -> journal_err e
  in
  let rs =
    Option.map
      (fun pt ->
        {
          Sample.rs_base = pt.Store.pt_base;
          rs_last = pt.Store.pt_last;
          rs_count = pt.Store.pt_count;
          rs_delta_bytes = pt.Store.pt_delta_bytes;
          rs_full_bytes = pt.Store.pt_full_bytes;
        })
      partial
  in
  let m = Machine.create program in
  let d = Domain.create ~core ~config m.Machine.env m.Machine.ctx in
  let max_cycles = max_mcycles * 1_000_000 in
  let cr =
    catch_sim_failure (fun () ->
        Sample.run_capture ~roi:sample_opts.s_roi ~placement ~max_cycles
          ~on_base ~on_window ?resume:rs ~schedule d)
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
  (match
     Fleet.check_serve ~store:store_dir ~socket ~lease_timeout ~max_failures ()
   with
  | Error msg -> fleet_err msg
  | Ok () -> ());
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
let run_work_cmd guard_opts connect retries chaos quiet =
  (match Fleet.check_work ~connect () with
  | Error msg -> fleet_err msg
  | Ok () -> ());
  let wrap = fleet_guard_wrap ~cmd:"work" guard_opts in
  (match chaos with
  | "" -> ()
  | spec -> (
    match Chaos.parse spec with
    | Error msg -> fleet_err ("--chaos " ^ msg)
    | Ok rules -> Chaos.arm rules));
  match
    catch_sim_failure (fun () ->
        Fleet.work ~retries ~log:(fleet_log quiet) ?wrap ~connect ())
  with
  | exception Chaos.Killed point ->
    Printf.eprintf "work: chaos killed at %s\n%!" point;
    exit 1
  | Error msg -> fleet_err msg
  | Ok n -> Printf.printf "work: replayed %d interval(s)\n" n

(* replay: consume a store in-process (no server), cache-aware *)
let run_replay_cmd guard_opts store_dir jobs quiet =
  (match Fleet.check_replay ~store:store_dir ~jobs () with
  | Error msg -> fleet_err msg
  | Ok () -> ());
  let wrap = fleet_guard_wrap ~cmd:"replay" guard_opts in
  let jobs = if jobs = 0 then Stdlib.Domain.recommended_domain_count () else jobs in
  match Store.open_store ~dir:store_dir with
  | Error e -> fleet_err (Store.error_to_string e)
  | Ok store ->
    let log = fleet_log quiet in
    log (Store.describe store);
    (match
       catch_sim_failure (fun () -> Fleet.replay ~jobs ~log ?wrap store)
     with
    | Error e -> fleet_err (Store.error_to_string e)
    | Ok rp ->
      let mf = Store.manifest store in
      Sample.report_degraded stdout ~count:mf.Store.m_count
        ~quarantined:rp.Fleet.rp_quarantined rp.Fleet.rp_result;
      flush stdout;
      Printf.eprintf
        "replay: %d from cache, %d replayed on %d job(s), %d quarantined\n%!"
        rp.Fleet.rp_cached rp.Fleet.rp_replayed jobs
        (List.length rp.Fleet.rp_quarantined);
      if rp.Fleet.rp_quarantined <> [] then exit exit_degraded)

(* sweep: every leg of a design-space spec over the same store, with
   matched-pair statistics against the store's own configuration *)
let run_sweep_cmd trace_opts guard_opts sample_opts store_dir spec_text jobs
    quiet =
  (match
     Sweep.check_flags ~store:store_dir ~spec:spec_text ~jobs
       ~guard_degrade:guard_opts.g_degrade
       ~tracing:(trace_requested trace_opts)
       ~sampling:(sample_requested sample_opts) ~fuzz:false ()
   with
  | Error msg -> fleet_err msg
  | Ok () -> ());
  match Sweep.parse spec_text with
  | Error e -> fleet_err (Sweep.error_to_string e)
  | Ok spec -> (
    let wrap = fleet_guard_wrap ~cmd:"sweep" guard_opts in
    let jobs =
      if jobs = 0 then Stdlib.Domain.recommended_domain_count () else jobs
    in
    match Store.open_store ~dir:store_dir with
    | Error e -> fleet_err (Store.error_to_string e)
    | Ok store -> (
      let log = fleet_log quiet in
      log (Store.describe store);
      match
        catch_sim_failure (fun () -> Sweep.run ~jobs ~log ?wrap store spec)
      with
      | Error msg -> fleet_err msg
      | Ok report ->
        Sweep.render stdout report;
        flush stdout;
        if Sweep.degraded report <> [] then exit exit_degraded))

let store_arg =
  Arg.(
    value & opt string ""
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Durable interval store directory (written by $(b,capture)).")

let socket_arg =
  Arg.(
    value & opt string ""
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket the job server listens on.")

let connect_arg =
  Arg.(
    value & opt string ""
    & info [ "connect" ] ~docv:"PATH"
        ~doc:"Unix socket of the job server to lease intervals from.")

let lease_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "lease-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Re-queue an interval if its worker has not delivered within \
           SECONDS (bounds the cost of a dead or wedged worker).")

let max_failures_arg =
  Arg.(
    value & opt int 3
    & info [ "max-failures" ] ~docv:"K"
        ~doc:
          "Quarantine an interval after K failed replay attempts: the run \
           still terminates, the report marks itself DEGRADED and covers \
           the surviving intervals only, and the exit code is 4.")

let connect_retries_arg =
  Arg.(
    value & opt int 50
    & info [ "connect-retries" ] ~docv:"N"
        ~doc:
          "Connection attempts before giving up, with exponential backoff \
           (50ms doubling to a 2s cap, jittered per worker) — lets workers \
           start before the server, and ride out a server restart.")

let chaos_arg =
  Arg.(
    value & opt string ""
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Arm seeded fault injection against this worker's own I/O (for \
           testing the fleet's recovery paths): rules \
           $(i,ACTION\\@POINT[:HIT]) joined by ';', e.g. \
           \"kill\\@work.done:2\". Actions: kill, drop, truncate, fail, \
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
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Replay workers (in-process domains); 0 auto-detects the host \
           core count.")

let fleet_quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress per-interval progress on stderr.")

let core_arg =
  Arg.(value & opt string "ooo" & info [ "core" ] ~doc:"Core model (ooo, smt, inorder, seq).")

let machine_arg =
  Arg.(value & opt string "k8" & info [ "machine" ] ~doc:"Machine config (k8, k8-silicon, tiny).")

let files_arg =
  Arg.(value & opt int 12 & info [ "files" ] ~doc:"Number of files in the rsync set.")

let commands_arg =
  Arg.(
    value
    & opt string "-run"
    & info [ "commands" ] ~doc:"PTLsim-style command list (e.g. \"-core ooo -run\").")

let max_mcycles_arg =
  Arg.(value & opt int 8000 & info [ "max-mcycles" ] ~doc:"Cycle budget, in millions.")

let iters_arg =
  Arg.(
    value
    & opt int 500_000
    & info [ "iters" ] ~doc:"Compute workload loop iterations.")

let bare_arg =
  Arg.(
    value & flag
    & info [ "bare" ]
        ~doc:
          "Run the compute workload on a bare machine (no minios kernel): \
           the loop ends in hlt instead of a syscall. Required for \
           $(b,--sample-jobs) — host-side kernel state is not \
           checkpointable.")

let vm_workload_arg =
  Arg.(
    value & opt string "gups"
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "TLB-hostile workload: $(b,gups) (random read-modify-writes over \
           a large table) or $(b,stream) (linear read-modify-write sweeps).")

let vm_slots_arg =
  Arg.(
    value
    & opt int 65536
    & info [ "slots" ] ~docv:"N"
        ~doc:"GUPS table size in 8-byte cells (power of two).")

let vm_steps_arg =
  Arg.(
    value
    & opt int 200_000
    & info [ "steps" ] ~docv:"N" ~doc:"GUPS random updates to perform.")

let vm_bytes_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "bytes" ] ~docv:"BYTES" ~doc:"stream working-set size in bytes.")

let vm_passes_arg =
  Arg.(
    value & opt int 4
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
    & opt (some int) None
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

let vm_watermark_arg =
  Arg.(
    value & opt int 0
    & info [ "watermark" ] ~docv:"PAGES"
        ~doc:
          "Resident user-frame budget for the CLOCK reclaimer (0 = \
           unlimited). Reclaimed dirty pages swap out and fault back in, \
           with TLB shootdown IPIs to every core sharing the space.")

let vm_batch_arg =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~docv:"PAGES"
        ~doc:"Evictions per reclaim pass once over the watermark.")

let vm_cmd =
  Cmd.v
    (Cmd.info "vm"
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
      const run_vm $ trace_term $ guard_term $ core_arg $ machine_arg
      $ vm_workload_arg $ vm_slots_arg $ vm_steps_arg $ vm_bytes_arg
      $ vm_passes_arg $ vm_hugepages_arg $ vm_pwc_arg $ vm_demand_arg
      $ vm_watermark_arg $ vm_batch_arg $ max_mcycles_arg)

let fuzz_machine_arg =
  Arg.(
    value & opt string "tiny"
    & info [ "machine" ] ~doc:"Machine config (k8, k8-silicon, tiny).")

let fuzz_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fuzz-seed" ] ~docv:"SEED"
        ~doc:"Master PRNG seed; one seed fully determines the run.")

let fuzz_iters_arg =
  Arg.(
    value & opt int 500
    & info [ "fuzz-iters" ] ~docv:"N" ~doc:"Random programs to generate and co-simulate.")

let fuzz_len_arg =
  Arg.(
    value & opt int 40
    & info [ "fuzz-len" ] ~docv:"SLOTS"
        ~doc:"Instruction bundles (slots) per generated program.")

let fuzz_classes_arg =
  Arg.(
    value & opt string ""
    & info [ "fuzz-classes" ] ~docv:"CLASSES"
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
    & opt (some int) None
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

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
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
      const run_fuzz $ trace_term $ guard_term $ sample_term $ core_arg
      $ fuzz_machine_arg $ fuzz_seed_arg $ fuzz_iters_arg $ fuzz_len_arg
      $ fuzz_classes_arg $ fuzz_report_dir_arg $ fuzz_inject_arg
      $ fuzz_no_oracle_arg)

let rsync_cmd =
  Cmd.v (Cmd.info "rsync" ~doc:"Run the paper's rsync-over-ssh benchmark")
    Term.(
      const run_rsync $ trace_term $ guard_term $ sample_term $ core_arg
      $ machine_arg $ files_arg $ commands_arg $ max_mcycles_arg)

let compute_cmd =
  Cmd.v (Cmd.info "compute" ~doc:"Run a synthetic compute workload")
    Term.(
      const run_compute $ trace_term $ guard_term $ sample_term $ core_arg
      $ machine_arg $ commands_arg $ max_mcycles_arg $ iters_arg $ bare_arg)

let capture_cmd =
  Cmd.v
    (Cmd.info "capture"
       ~doc:
         "Run the sampled master pass over the bare compute workload and \
          write a durable interval store: a shared base image plus one \
          delta checkpoint (dirty pages + changed uarch components) per \
          measured window. The store outlives this process; replay it \
          with $(b,replay) or distribute it with $(b,serve)/$(b,work).")
    Term.(
      const run_capture_cmd $ guard_term $ sample_term $ core_arg
      $ machine_arg $ iters_arg $ max_mcycles_arg $ store_arg
      $ capture_resume_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
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
    (Cmd.info "work"
       ~doc:
         "Join a sampling fleet: connect to an $(b,optlsim serve) socket, \
          lease intervals, replay each from the store's base + delta \
          checkpoints on private state, and stream results back until the \
          server drains.")
    Term.(
      const run_work_cmd $ guard_term $ connect_arg $ connect_retries_arg
      $ chaos_arg $ fleet_quiet_arg)

let sweep_spec_arg =
  Arg.(
    value & opt string ""
    & info [ "sweep" ] ~docv:"SPEC"
        ~doc:
          "Design-space spec: axes $(i,KEY=V1,V2,...) separated by a \
           standalone $(b,x), e.g. \"cache.l2.size=256k,1m,4m x \
           bpred=gshare,hybrid\". The cross product of the axes gives the \
           legs; run $(b,sweep) with an unknown key to list the known \
           ones.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
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
      const run_sweep_cmd $ trace_term $ guard_term $ sample_term $ store_arg
      $ sweep_spec_arg $ replay_jobs_arg $ fleet_quiet_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a captured interval store in this process (no server): \
          cache-aware, optionally parallel across domains, printing the \
          same merged report the fleet produces.")
    Term.(
      const run_replay_cmd $ guard_term $ store_arg $ replay_jobs_arg
      $ fleet_quiet_arg)

(* ---------- conformance: spec-derived property + exception suites ---------- *)

let run_conformance level coverage_only =
  let cov = Spec.coverage () in
  print_string (Conformance.coverage_to_string cov);
  let cov_ok = cov.Spec.missing = [] in
  if coverage_only then (if not cov_ok then exit 1)
  else begin
    let level = if level = "quick" then `Quick else `Full in
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
  Arg.(value & opt (enum [ ("full", "full"); ("quick", "quick") ]) "full"
       & info [ "level" ] ~docv:"LEVEL" ~doc)

let conformance_coverage_arg =
  let doc = "Only report spec coverage of the fuzz-generator opcode set; \
             exit 1 if any generator-reachable opcode has no spec row." in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let conformance_cmd =
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run the spec-derived conformance suites: per-row flag-lattice \
          property sweeps over corner operands (oracle vs sequential core \
          in lockstep), table-driven exception triggers (#DE/#GP/#PF \
          prediction vs IDT delivery), and the generator-coverage gap \
          report. Exit 2 on any conformance failure, 1 on a coverage gap.")
    Term.(const run_conformance $ conformance_level_arg $ conformance_coverage_arg)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"List registered core models")
    Term.(
      const (fun () ->
          Printf.printf "core models: %s\n" (String.concat ", " (Registry.names ()));
          Printf.printf "machine configs: k8 (k8-ptlsim), k8-silicon, tiny\n")
      $ const ())

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "optlsim" ~doc:"Cycle-accurate full-system x86-64-style simulator")
          [
            rsync_cmd; compute_cmd; vm_cmd; fuzz_cmd; capture_cmd;
            serve_cmd; work_cmd; replay_cmd; sweep_cmd; conformance_cmd;
            stats_cmd;
          ]))
