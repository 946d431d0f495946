(* The four ledger workloads. Each is a closed-loop batch job: an op runs
   only after the previous one finished, and the only thing the seed
   reaches is the generated input (file set, qsort keys, interval
   placement, fuzz programs).

   A workload prepares one op at a time ([prepare], timed as set-up) and
   returns the op itself, which runs untraced ([None]) or traced
   ([Some spans]). Traced ops record spans around the calls into each
   layer from here, outside lib/, and must produce the same simulated
   result as untraced ones. [probe] runs once after the traced ops:
   single-layer measurements on the same inputs (the functional core
   alone, warming, restores, the full-detail reference). *)

open Ptl_util
module Domain = Ptl_hyper.Domain
module Ptlmon = Ptl_hyper.Ptlmon
module Checkpoint = Ptl_hyper.Checkpoint
module Cosim = Ptl_hyper.Cosim
module Kernel = Ptl_kernel.Kernel
module RB = Ptl_workloads.Rsync_bench
module FS = Ptl_workloads.Fileset
module MB = Ptl_workloads.Microbench
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Seqcore = Ptl_arch.Seqcore
module Config = Ptl_ooo.Config
module Registry = Ptl_ooo.Registry
module Uarch = Ptl_ooo.Uarch
module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Fleet = Ptl_fleet.Fleet
module Sweep = Ptl_sweep.Sweep
module Stats = Ptl_stats.Statstree
module Harness = Ptl_fuzz.Harness
module Fuzzgen = Ptl_fuzz.Fuzzgen
module Cross = Ptl_oracle.Cross

type env = {
  seed : int;
  quick : bool;  (** tiny sizes, for the test suite *)
  scratch : string;  (** private directory for interval stores *)
}

type outcome = {
  insns : int;  (** guest instructions the op covered *)
  attempted : int;
  failed : int;
  digest : string;  (** hex digest of the op's simulated result *)
  gates : (string * bool) list;  (** named correctness checks *)
  stat : string -> int;  (** model counters behind the per-layer ratios *)
  extras : (string * float) list;  (** deterministic workload numbers *)
}

type probe = {
  seq_mips : float;  (** functional core alone on this workload's input *)
  lines : (string * float * string) list;  (** workload-specific layer numbers *)
  checks : (string * bool) list;
}

type t = {
  name : string;
  work_unit : string;  (** what [attempted] counts, for the throughput line *)
  per_op_input : bool;  (** op k runs input k; otherwise every op repeats one input *)
  prepare : env -> int -> Spans.t option -> outcome;
  probe : env -> Spans.t -> first:outcome -> untraced_s:float -> probe;
}

let ok to_string = function Ok v -> v | Error e -> failwith (to_string e)
let store_ok r = ok Store.error_to_string r
let span tr name f = match tr with None -> f () | Some t -> Spans.with_span t name f
let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Time every step of a core instance into an aggregate under the span
   open when the instance is built. *)
let timed t name (inst : Registry.instance) =
  let record = Spans.agg t name in
  {
    inst with
    Registry.step =
      (fun () ->
        let t0 = Spans.now_ns () in
        inst.Registry.step ();
        record (Spans.now_ns () - t0));
  }

let store_dirs = ref 0

let fresh_dir env =
  incr store_dirs;
  Filename.concat env.scratch (Printf.sprintf "store-%d" !store_dirs)

let remove_store dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Mean duration of the spans called [name], in seconds. *)
let mean_s t name =
  float_of_int (Spans.total t name) /. 1e9 /. float_of_int (max 1 (Spans.count t name))

let per_op t name = float_of_int (Spans.total t name) /. 1e9 /. float_of_int (max 1 (Spans.count t "op"))
let share t names = float_of_int (List.fold_left (fun acc n -> acc + Spans.total t n) 0 names) /. float_of_int (Spans.total t "op")

(* A probe is one short run, so it runs three times and keeps its fastest,
   as the end-to-end metrics do. [make] builds fresh state outside the span
   and returns the part to time. Returns the fastest nanoseconds and the
   first run's result. *)
let fastest_of_3 t name make =
  let runs =
    List.init 3 (fun _ ->
        let run = make () in
        let t0 = Spans.now_ns () in
        let r = Spans.with_span t name run in
        (Spans.now_ns () - t0, r))
  in
  (List.fold_left (fun acc (ns, _) -> min acc ns) max_int runs, snd (List.hd runs))

(* ------------------------------------------------------------------ *)
(* rsync_full: the paper's full-system rsync-over-ssh run under minios  *)
(* ------------------------------------------------------------------ *)

let rsync_fileset env =
  let nfiles, size = if env.quick then (1, 64) else (1, 2048) in
  (* fixed sizes and every dst file stale: the seed changes the text and
     the edits, not the amount of work *)
  { FS.nfiles; min_size = size; max_size = size; seed = env.seed; pct_identical = 0; pct_modified = 100 }

let rsync_launch env = Ptlmon.launch (RB.spec ~fileset:(rsync_fileset env) ~snapshot_interval:None ())
let rsync_max_cycles = 4_000_000_000

let rsync_prepare env _k =
  let d, k = rsync_launch env in
  fun tr ->
    (match tr with Some t -> Domain.set_instance_wrap d (timed t "ooo.step") | None -> ());
    Domain.submit d "-core ooo -run";
    span tr "domain.run" (fun () -> ignore (Domain.run ~max_cycles:rsync_max_cycles d));
    let synced = span tr "verify" (fun () -> RB.verify_sync k) in
    let shut = Kernel.is_shutdown k in
    let st = d.Domain.env.Env.stats in
    {
      insns = Domain.insns d;
      attempted = 1;
      failed = (if synced && shut then 0 else 1);
      digest = span tr "digest" (fun () -> Digest.to_hex (Digest.string (Stats.dump st)));
      gates = [ ("rsync: every dst file equals its src (verify_sync)", synced); ("rsync: guest shut down", shut) ];
      stat = Stats.get st;
      extras =
        [
          ( "sim.idle_frac",
            float_of_int (Stats.get st "domain.cycles_in_mode.idle")
            /. float_of_int (max 1 (Stats.get st "domain.cycles")) );
        ];
    }

let rsync_probe env t ~first ~untraced_s:_ =
  (* the same full-system run on the functional core *)
  let ns, (d, k) =
    fastest_of_3 t "probe.seq" (fun () ->
        let d, k = rsync_launch env in
        Domain.submit d "-core seq -run";
        fun () ->
          ignore (Domain.run ~max_cycles:rsync_max_cycles d);
          (d, k))
  in
  {
    seq_mips = float_of_int (Domain.insns d) *. 1e3 /. float_of_int ns;
    lines =
      [
        ("domain.outside_s", per_op t "domain.run" -. per_op t "ooo.step", "s");
        ("sim.idle_frac", List.assoc "sim.idle_frac" first.extras, "ratio");
      ];
    checks = [ ("rsync: functional core also synchronizes", RB.verify_sync k) ];
  }

let rsync_full =
  { name = "rsync_full"; work_unit = "sync"; per_op_input = false; prepare = rsync_prepare; probe = rsync_probe }

(* ------------------------------------------------------------------ *)
(* qsort inputs shared by sampled_qsort and sweep_qsort                 *)
(* ------------------------------------------------------------------ *)

(* 16K 64-bit keys = 128 KB: twice the K8 L1D, an eighth of its L2 *)
let qsort_n env = if env.quick then 2048 else 16_384

let schedule env =
  if env.quick then { Sample.ff_insns = 20_000; warmup_insns = 2_000; measure_insns = 4_000 }
  else { Sample.ff_insns = 125_000; warmup_insns = 10_000; measure_insns = 20_000 }

let placement env = Sample.Rand_offset env.seed

let qsort_machine env =
  let n = qsort_n env in
  let m = Machine.create (MB.qsort ~n) in
  let vaddr, bytes = MB.qsort_keys ~n ~seed:env.seed in
  Machine.load_blob m.Machine.env m.Machine.ctx ~vaddr ~bytes ~writable:true ~user:true;
  m

let qsort_domain env =
  let m = qsort_machine env in
  Domain.create ~core:"ooo" ~config:Config.k8_ptlsim m.Machine.env m.Machine.ctx

(* qsort leaves its inversion count in rax: 0 when the keys are sorted *)
let sorted ctx = Context.gpr ctx Ptl_isa.Regs.rax = 0L

let run_native seq =
  let rec go () =
    match Seqcore.step_block seq with
    | Seqcore.Executed 0 | Seqcore.Idle -> ()
    | Seqcore.Executed _ | Seqcore.Interrupted -> go ()
  in
  go ()

(* The functional core alone over a fresh machine with the same keys. *)
let qsort_seq_probe env t =
  let ns, m =
    fastest_of_3 t "probe.seq" (fun () ->
        let m = qsort_machine env in
        let seq = Seqcore.create m.Machine.env m.Machine.ctx in
        fun () ->
          run_native seq;
          m)
  in
  (m.Machine.ctx.Context.insns_committed, ns, sorted m.Machine.ctx)

let create_store env ~workload cr =
  let dir = fresh_dir env in
  let store =
    store_ok
      (Store.create ~dir ~workload ~core:"ooo" ~schedule:(schedule env)
         ~placement:(Sample.placement_to_string (placement env))
         cr ~config:Config.k8_ptlsim)
  in
  (dir, store)

(* Restore one interval into fresh private state, as a replay does before
   its first step; returns the components that started cold. *)
let restore ~config (base : Checkpoint.base) dk =
  let stats = Stats.create () in
  let mem = Checkpoint.clone_mem ~base dk in
  let env = Env.create ~stats ~mem () in
  let ctx = Context.create ~vcpu_id:0 in
  let uarch = Uarch.create ~prefix:"ooo" config stats in
  Checkpoint.restore_delta_into_fit ~base dk ~uarch env ctx

(* ------------------------------------------------------------------ *)
(* sampled_qsort: capture -> store -> replay -> merge                   *)
(* ------------------------------------------------------------------ *)

(* Fleet.replay's serial path, one interval at a time, so each layer
   call gets its own span. *)
let replay_traced t store =
  let m = Store.manifest store in
  let schedule = Store.schedule m in
  let base = Spans.with_span t "store.read" (fun () -> store_ok (Store.load_base store)) in
  let results =
    Array.init m.Store.m_count (fun index ->
        let dk = Spans.with_span t "store.read" (fun () -> store_ok (Store.load_interval store index)) in
        let iv =
          Spans.with_span t "replay.interval" (fun () ->
              Sample.replay_delta
                ~wrap:(fun ~env:_ ~ctx:_ inst -> timed t "ooo.step" inst)
                ~core_name:m.Store.m_core ~config:m.Store.m_config ~schedule ~index ~base dk)
        in
        Spans.with_span t "store.write" (fun () ->
            store_ok (Store.put_result store ~config_digest:m.Store.m_config_digest ~index iv));
        iv)
  in
  Spans.with_span t "merge" (fun () -> Fleet.merge m results)

let sampled_prepare env _k =
  let d = qsort_domain env in
  fun tr ->
    let cr =
      span tr "capture" (fun () -> Sample.run_capture ~placement:(placement env) ~schedule:(schedule env) d)
    in
    let dir, store = span tr "store.create" (fun () -> create_store env ~workload:"ledger-sampled_qsort" cr) in
    let r, quarantined =
      match tr with
      | None ->
        let rp = store_ok (Fleet.replay ~jobs:1 store) in
        (rp.Fleet.rp_result, List.length rp.Fleet.rp_quarantined)
      | Some t -> (replay_traced t store, 0)
    in
    remove_store dir;
    let count = Array.length cr.Sample.cr_deltas in
    {
      insns = cr.Sample.cr_insns;
      attempted = count;
      failed = quarantined;
      digest = digest_of r;
      gates = [ ("qsort: keys sorted after capture (rax = 0)", sorted d.Domain.ctx) ];
      stat = Sample.result_stat r;
      extras =
        [
          ("est_cycles", r.Sample.est_cycles);
          ("cpi_mean", r.Sample.cpi_mean);
          ("cpi_ci95", r.Sample.cpi_ci95);
          ("insns", float_of_int cr.Sample.cr_insns);
          ("delta_kb", float_of_int cr.Sample.cr_delta_bytes /. 1024.0 /. float_of_int (max 1 count));
        ];
    }

let sampled_probe env t ~first ~untraced_s:_ =
  let seq_insns, seq_ns, seq_sorted = qsort_seq_probe env t in
  (* the same native run with functional warming hooked in *)
  let warm_ns, () =
    fastest_of_3 t "probe.warming" (fun () ->
        let d = qsort_domain env in
        let u = Uarch.create ~prefix:"ooo" Config.k8_ptlsim d.Domain.env.Env.stats in
        Domain.set_uarch d u;
        ignore (Sample.install_warming d u : unit -> unit);
        fun () -> run_native d.Domain.native)
  in
  (* restoring every interval of one capture *)
  let cr = Sample.run_capture ~placement:(placement env) ~schedule:(schedule env) (qsort_domain env) in
  Array.iter
    (fun dk ->
      Spans.with_span t "probe.restore" (fun () ->
          ignore (restore ~config:Config.k8_ptlsim cr.Sample.cr_base dk : string list)))
    cr.Sample.cr_deltas;
  (* the accuracy reference: the whole program in full detail *)
  let m = qsort_machine env in
  let ctx = m.Machine.ctx in
  Spans.with_span t "probe.reference" (fun () ->
      let inst =
        timed t "reference.step" (Registry.build "ooo" Config.k8_ptlsim m.Machine.env [| ctx |])
      in
      let budget = ref 400_000_000 in
      while (ctx.Context.running || Context.interruptible ctx || not (inst.Registry.idle ())) && !budget > 0 do
        inst.Registry.step ();
        decr budget
      done);
  let ref_cycles = float_of_int m.Machine.env.Env.cycle in
  let x name = List.assoc name first.extras in
  let insns = x "insns" in
  let ref_hist = Spans.hist t "reference.step" in
  let capture_s = float_of_int (Spans.fastest t "capture") /. 1e9 in
  {
    seq_mips = float_of_int seq_insns *. 1e3 /. float_of_int (max 1 seq_ns);
    lines =
      [
        ("capture.s", capture_s, "s");
        ("capture.share", share t [ "capture" ], "ratio");
        ("warming.ns_per_insn", float_of_int (warm_ns - seq_ns) /. insns, "ns");
        ("checkpoint.ns_per_insn", ((capture_s *. 1e9) -. float_of_int warm_ns) /. insns, "ns");
        ("checkpoint.delta_kb", x "delta_kb", "KB");
        ("store.write_s", mean_s t "store.create", "s");
        ("store.read_ms", 1e3 *. mean_s t "store.read", "ms");
        ("checkpoint.restore_ms", 1e3 *. mean_s t "probe.restore", "ms");
        ("replay.s", per_op t "op" -. per_op t "capture" -. per_op t "store.create", "s");
        ("replay.share", 1.0 -. share t [ "capture"; "store.create" ], "ratio");
        ("replay.interval_ms", 1e3 *. mean_s t "replay.interval", "ms");
        ("reference.s", mean_s t "probe.reference", "s");
        ( "reference.ooo_step_ns",
          (match ref_hist with Some h -> Spans.percentile h 50.0 | None -> nan),
          "ns" );
        ("est_err_pct", 100.0 *. Float.abs (x "est_cycles" -. ref_cycles) /. ref_cycles, "%");
        ("ci95_pct", 100.0 *. x "cpi_ci95" /. x "cpi_mean", "%");
      ];
    checks =
      [
        ("qsort: functional core sorts the keys", seq_sorted);
        ("qsort: full-detail reference sorts the keys (rax = 0)", sorted ctx);
      ];
  }

let sampled_qsort =
  {
    name = "sampled_qsort";
    work_unit = "interval";
    per_op_input = false;
    prepare = sampled_prepare;
    probe = sampled_probe;
  }

(* ------------------------------------------------------------------ *)
(* sweep_qsort: four config legs plus the base over one capture         *)
(* ------------------------------------------------------------------ *)

let sweep_spec = "cache.l1d.size=32K,128K x prefetch=false,true"

(* A fixed number of windows (the capture stops after that many periods),
   so every seed replays the same number of intervals per leg. *)
let sweep_intervals env = if env.quick then 2 else 4

let sweep_capture env =
  Sample.run_capture ~placement:(placement env) ~schedule:(schedule env)
    ~max_insns:(sweep_intervals env * Sample.period (schedule env))
    (qsort_domain env)

let sweep_prepare env _k =
  let cr = sweep_capture env in
  let dir, store = create_store env ~workload:"ledger-sweep_qsort" cr in
  let spec = ok Sweep.error_to_string (Sweep.parse sweep_spec) in
  (* instructions the timed core commits across every replay *)
  let ctxs = ref [] in
  let note ctx = ctxs := (ctx, ctx.Context.insns_committed) :: !ctxs in
  fun tr ->
    let r, gates =
      match tr with
      | None ->
        let r = ok Fun.id (Sweep.run ~jobs:1 ~wrap:(fun ~env:_ ~ctx inst -> note ctx; inst) store spec) in
        let again = ok Fun.id (Sweep.run ~jobs:1 store spec) in
        let cached = List.for_all (fun rk -> rk.Sweep.rk.Sweep.lr_replayed = 0) again.Sweep.rep_ranked in
        (r, [ ("sweep: cached rerun renders byte-identically", cached && Sweep.render_string again = Sweep.render_string r) ])
      | Some t ->
        let m = Store.manifest store in
        let legs = ok Sweep.error_to_string (Sweep.legs ~base:m.Store.m_config spec) in
        let wrap ~env:_ ~ctx inst =
          note ctx;
          timed t "ooo.step" inst
        in
        let leg name config =
          Spans.with_span t ("sweep.leg " ^ name) (fun () -> ignore (store_ok (Fleet.replay ~jobs:1 ?config ~wrap store)))
        in
        leg "(base)" None;
        List.iter (fun l -> leg l.Sweep.l_name (Some l.Sweep.l_config)) legs;
        let r = Spans.with_span t "sweep.report" (fun () -> ok Fun.id (Sweep.run ~jobs:1 store spec)) in
        let covered = List.for_all (fun rk -> rk.Sweep.rk.Sweep.lr_replayed = 0) r.Sweep.rep_ranked in
        (r, [ ("sweep: traced legs fill every row of the report", covered) ])
    in
    let text = span tr "sweep.render" (fun () -> Sweep.render_string r) in
    remove_store dir;
    let rows = List.length r.Sweep.rep_ranked in
    {
      insns = List.fold_left (fun acc (ctx, start) -> acc + ctx.Context.insns_committed - start) 0 !ctxs;
      attempted = rows * r.Sweep.rep_intervals;
      failed = List.fold_left (fun acc rk -> acc + List.length rk.Sweep.rk.Sweep.lr_quarantined) 0 r.Sweep.rep_ranked;
      digest = Digest.to_hex (Digest.string text);
      gates;
      stat = Sample.result_stat r.Sweep.rep_base.Sweep.lr_result;
      extras = [ ("rows", float_of_int rows) ];
    }

let sweep_probe env t ~first ~untraced_s =
  let seq_insns, seq_ns, seq_sorted = qsort_seq_probe env t in
  let cr = sweep_capture env in
  let m_config = Config.k8_ptlsim in
  let spec = ok Sweep.error_to_string (Sweep.parse sweep_spec) in
  let legs = ok Sweep.error_to_string (Sweep.legs ~base:m_config spec) in
  let rows = ("(base)", m_config) :: List.map (fun l -> (l.Sweep.l_name, l.Sweep.l_config)) legs in
  let dk = cr.Sample.cr_deltas.(0) in
  let leg_lines =
    List.concat_map
      (fun (name, config) ->
        let cold =
          Spans.with_span t "probe.restore" (fun () -> restore ~config cr.Sample.cr_base dk)
        in
        [
          ("sweep.leg_s " ^ name, mean_s t ("sweep.leg " ^ name), "s");
          ("restore.cold_components " ^ name, float_of_int (List.length cold), "count");
        ])
      rows
  in
  {
    seq_mips = float_of_int seq_insns *. 1e3 /. float_of_int (max 1 seq_ns);
    lines =
      ("legs_per_min", 60.0 *. List.assoc "rows" first.extras /. untraced_s, "legs/min")
      :: ("checkpoint.restore_ms", 1e3 *. mean_s t "probe.restore", "ms")
      :: leg_lines;
    checks = [ ("qsort: functional core sorts the keys", seq_sorted) ];
  }

let sweep_qsort =
  { name = "sweep_qsort"; work_unit = "leg-interval"; per_op_input = false; prepare = sweep_prepare; probe = sweep_probe }

(* ------------------------------------------------------------------ *)
(* fuzz3: three-way differential fuzzing (seq, ooo, spec oracle)        *)
(* ------------------------------------------------------------------ *)

let batch env = if env.quick then 10 else 100

(* Op k fuzzes its own batch: a fuzz campaign never repeats a program. *)
let batch_seed env k = (env.seed * 100_003) + k

(* The harness's per-iteration seed stream, replayed from outside. *)
let iter_seeds ~seed ~iters =
  let master = Rng.create seed in
  Array.init iters (fun _ -> Int64.to_int (Int64.logand (Rng.next64 master) 0x3FFF_FFFF_FFFF_FFFFL))

let generate iter_seed =
  let prog = Fuzzgen.generate (Rng.create iter_seed) ~classes:Fuzzgen.all_classes ~len:Harness.default_len in
  (prog, Fuzzgen.insn_count prog)

(* Commit bound the harness gives each program. *)
let max_insns orig = (orig * 64) + 256

let summary_digest (s : Harness.summary) = digest_of s

(* Harness.run's path for a program that agrees everywhere, one stage at
   a time. *)
let fuzz_traced t ~seed ~iters =
  let sums = Hashtbl.create 256 in
  let add_stats st =
    List.iter
      (fun p -> Hashtbl.replace sums p (Stats.get st p + Option.value ~default:0 (Hashtbl.find_opt sums p)))
      (Stats.paths st)
  in
  let gen_insns = ref 0 and unsupported = ref 0 and diverged = ref 0 in
  Array.iter
    (fun iter_seed ->
      let prog, orig = Spans.with_span t "fuzz.gen" (fun () -> generate iter_seed) in
      gen_insns := !gen_insns + orig;
      let max_insns = max_insns orig in
      let envs = ref [] in
      let wrap env _ctx inst =
        envs := env :: !envs;
        timed t "ooo.step" inst
      in
      let agree =
        Spans.with_span t "fuzz.cosim" (fun () ->
            match
              Cosim.validate ~config:Config.tiny ~core:"ooo" ~wrap ~budget:Harness.step_budget
                ~mem_ranges:Harness.mem_ranges ~check_every:Harness.default_check_every ~max_insns
                (Fuzzgen.build prog)
            with
            | Cosim.Agree _ -> true
            | Cosim.Diverged _ -> false)
      in
      List.iter (fun e -> add_stats e.Env.stats) !envs;
      (match
         Spans.with_span t "fuzz.oracle" (fun () ->
             Cross.check ~max_insns ~mem_ranges:Harness.mem_ranges (Fuzzgen.build prog))
       with
      | Cross.Agree _ -> if not agree then incr diverged
      | Cross.Diverged _ -> incr diverged
      | Cross.Unsupported _ ->
        incr unsupported;
        if not agree then incr diverged))
    (iter_seeds ~seed ~iters);
  ( {
      Harness.s_seed = seed;
      s_core = "ooo";
      s_iters = iters;
      s_gen_insns = !gen_insns;
      s_oracle_checked = iters;
      s_oracle_unsupported = !unsupported;
      s_divergences = [];
    },
    !diverged,
    fun p -> Option.value ~default:0 (Hashtbl.find_opt sums p) )

let fuzz_prepare env k =
  let seed = batch_seed env k and iters = batch env in
  (* generating the batch is the campaign's input; the harness repeats it *)
  let expected = Array.fold_left (fun acc s -> acc + snd (generate s)) 0 (iter_seeds ~seed ~iters) in
  fun tr ->
    let s, diverged, stat =
      match tr with
      | None ->
        let s = Harness.run ~core:"ooo" ~seed ~iters () in
        (s, List.length s.Harness.s_divergences, fun _ -> 0)
      | Some t -> fuzz_traced t ~seed ~iters
    in
    {
      insns = s.Harness.s_gen_insns;
      attempted = iters;
      failed = diverged + s.Harness.s_oracle_unsupported;
      digest = summary_digest s;
      gates =
        [
          ("fuzz: no divergence", diverged = 0);
          ("fuzz: oracle supports every program", s.Harness.s_oracle_unsupported = 0);
          ("fuzz: the benchmark's seed stream matches the harness's", s.Harness.s_gen_insns = expected);
        ];
      stat;
      extras = [];
    }

let fuzz_probe env t ~first:_ ~untraced_s =
  (* the harness's reference run (Cosim.run_reference) over the first
     batch, with only the functional core's stepping inside the span; three
     passes, the fastest kept *)
  let progs = Array.map generate (iter_seeds ~seed:(batch_seed env 0) ~iters:(batch env)) in
  let pass () =
    Array.fold_left
      (fun (ns, insns) (prog, orig) ->
        let m = Machine.create (Fuzzgen.build prog) in
        let ctx = m.Machine.ctx in
        let seq = Seqcore.create ~max_bb_insns:1 m.Machine.env ctx in
        let t0 = Spans.now_ns () in
        Spans.with_span t "probe.seq" (fun () ->
            let rec go () =
              if ctx.Context.insns_committed < max_insns orig && ctx.Context.running then
                match Seqcore.step_block seq with
                | Seqcore.Executed 0 | Seqcore.Idle -> ()
                | Seqcore.Executed _ | Seqcore.Interrupted -> go ()
            in
            go ());
        (ns + Spans.now_ns () - t0, insns + ctx.Context.insns_committed))
      (0, 0) progs
  in
  let passes = List.init 3 (fun _ -> pass ()) in
  let seq_ns = List.fold_left (fun acc (ns, _) -> min acc ns) max_int passes in
  let per_prog name = float_of_int (Spans.total t name) /. 1e6 /. float_of_int (Spans.count t "fuzz.gen") in
  {
    seq_mips = float_of_int (snd (List.hd passes)) *. 1e3 /. float_of_int seq_ns;
    lines =
      [
        ("progs_per_s", float_of_int (batch env) /. untraced_s, "programs/s");
        ("fuzz.gen_us", 1e3 *. per_prog "fuzz.gen", "us");
        ("fuzz.cosim_ms", per_prog "fuzz.cosim", "ms");
        ("fuzz.timed_ms", per_prog "ooo.step", "ms");
        ("fuzz.oracle_ms", per_prog "fuzz.oracle", "ms");
        ("fuzz.seq_ms", float_of_int seq_ns /. 1e6 /. float_of_int (batch env), "ms");
      ];
    checks = [];
  }

let fuzz3 = { name = "fuzz3"; work_unit = "program"; per_op_input = true; prepare = fuzz_prepare; probe = fuzz_probe }

let all = [ rsync_full; sampled_qsort; sweep_qsort; fuzz3 ]
let find name = List.find_opt (fun w -> w.name = name) all
