(* Tests for the mixed-mode sampled simulation engine (lib/sample):
   flag validation, snapshot/aggregate arithmetic, silent functional
   warming, determinism, architectural equality with a pure sequential
   run, CPI accuracy and ptlcall-driven regions of interest. *)

module Sample = Ptl_sample.Sample
module Fleet = Ptl_fleet.Fleet
module S = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace
module Uarch = Ptl_ooo.Uarch
module Config = Ptl_ooo.Config
module Hierarchy = Ptl_mem.Hierarchy
module Cache = Ptl_mem.Cache
module Tlb = Ptl_mem.Tlb
module Predictor = Ptl_bpred.Predictor
module Domain = Ptl_hyper.Domain
module Ptlcall = Ptl_hyper.Ptlcall
module Kernel = Ptl_kernel.Kernel
module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Machine = Ptl_arch.Machine
module Insn = Ptl_isa.Insn
module Ooo = Ptl_ooo.Ooo_core
module G = Ptl_workloads.Gasm

(* ---------- schedule arithmetic ---------- *)

let check ?ff ?period ?(warmup = 1_000) ?(measure = 2_000) () =
  Sample.check_flags ~ff ~period ~warmup ~measure ()

let test_check_flags () =
  (match check ~period:100_000 () with
  | Ok s ->
    Alcotest.(check int) "derived ff" 97_000 s.Sample.ff_insns;
    Alcotest.(check int) "warmup" 1_000 s.Sample.warmup_insns;
    Alcotest.(check int) "measure" 2_000 s.Sample.measure_insns;
    Alcotest.(check int) "period" 100_000 (Sample.period s)
  | Error e -> Alcotest.failf "valid period rejected: %s" e);
  (match check ~ff:50_000 () with
  | Ok s -> Alcotest.(check int) "explicit ff" 50_000 s.Sample.ff_insns
  | Error e -> Alcotest.failf "valid ff rejected: %s" e);
  let rejects name r =
    Alcotest.(check bool) name true (Result.is_error r)
  in
  rejects "ff and period" (check ~ff:1 ~period:100_000 ());
  rejects "period too small" (check ~period:3_000 ())

(* ---------- aggregate arithmetic ---------- *)

let mk_interval idx insns cycles =
  let snap = S.snapshot (S.create ()) ~cycle:0 in
  {
    Sample.iv_index = idx;
    iv_insns = insns;
    iv_cycles = cycles;
    iv_cpi = float_of_int cycles /. float_of_int insns;
    iv_before = snap;
    iv_after = snap;
  }

let test_aggregate () =
  (* two intervals with CPIs 1.5 and 2.5: aggregate 400/200 = 2.0,
     sample variance 0.5, CI = 1.96 * sqrt(0.5/2) = 0.98 *)
  let ivs = [ mk_interval 0 100 150; mk_interval 1 100 250 ] in
  let r = Sample.aggregate ~total_insns:1_000 ~total_cycles:12_345 ivs in
  Alcotest.(check int) "measured insns" 200 r.Sample.measured_insns;
  Alcotest.(check int) "measured cycles" 400 r.Sample.measured_cycles;
  Alcotest.(check (float 1e-9)) "aggregate cpi" 2.0 r.Sample.cpi;
  Alcotest.(check (float 1e-9)) "mean cpi" 2.0 r.Sample.cpi_mean;
  Alcotest.(check (float 1e-9)) "ci95" 0.98 r.Sample.cpi_ci95;
  Alcotest.(check (float 1e-6)) "estimated cycles" 2000.0 r.Sample.est_cycles;
  Alcotest.(check int) "totals preserved" 12_345 r.Sample.total_cycles;
  (* one interval: no variance estimate *)
  let r1 = Sample.aggregate ~total_insns:100 ~total_cycles:0 [ mk_interval 0 50 100 ] in
  Alcotest.(check (float 1e-9)) "single-interval ci" 0.0 r1.Sample.cpi_ci95;
  (* no intervals: everything degrades to zero, no division by zero *)
  let r0 = Sample.aggregate ~total_insns:100 ~total_cycles:0 [] in
  Alcotest.(check (float 1e-9)) "empty cpi" 0.0 r0.Sample.cpi;
  Alcotest.(check (float 1e-9)) "empty est" 0.0 r0.Sample.est_cycles

(* ---------- functional warming is silent ---------- *)

let test_warming_silent () =
  let st = S.create () in
  let u = Uarch.create Config.tiny st in
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.configure ();
      let h = u.Uarch.hierarchy in
      Hierarchy.warm_load h ~paddr:0x1_0000;
      Hierarchy.warm_store h ~paddr:0x2_0040;
      Hierarchy.warm_ifetch h ~paddr:0x40_0000;
      Tlb.insert u.Uarch.dtlb 0x7f00_0000L
        { Tlb.vpn = 0L; mfn = 42; writable = true; user = true; nx = false; huge = false };
      (match Tlb.lookup_quiet u.Uarch.dtlb 0x7f00_0123L with
      | Tlb.L1_hit e -> Alcotest.(check int) "tlb mfn" 42 e.Tlb.mfn
      | _ -> Alcotest.fail "expected dtlb hit after insert");
      Predictor.warm_cond u.Uarch.bpred ~rip:0x40_0100L ~taken:true;
      Predictor.warm_target u.Uarch.bpred ~rip:0x40_0100L ~target:0x40_0000L;
      Predictor.warm_ras u.Uarch.bpred ~call:true ~ret:false
        ~next_rip:0x40_0108L;
      (* the state really moved... *)
      Alcotest.(check bool) "l1d warmed" true
        (Cache.probe h.Hierarchy.l1d 0x1_0000);
      Alcotest.(check bool) "l1d warmed by store" true
        (Cache.probe h.Hierarchy.l1d 0x2_0040);
      Alcotest.(check bool) "l1i warmed" true
        (Cache.probe h.Hierarchy.l1i 0x40_0000);
      Alcotest.(check bool) "l2 warmed" true
        (Cache.probe h.Hierarchy.l2 0x1_0000);
      (* ...but not one statistic and not one trace event *)
      List.iter
        (fun p ->
          Alcotest.(check int) (Printf.sprintf "counter %s still 0" p) 0
            (S.get st p))
        (S.paths st);
      Alcotest.(check int) "no trace events" 0 (Trace.length ()))

(* ---------- end to end on a kernel workload ---------- *)

(* rbx := sum(1..n) + 3n, computed in a homogeneous 4-insn loop; the
   final value doubles as the architectural fingerprint of the run. *)
let loop_domain ?(core = "ooo") ~iters () =
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  G.lii g G.rbx 0;
  G.lii g G.rcx iters;
  G.label g "top";
  G.add g G.rbx G.rcx;
  G.addi g G.rbx 3;
  G.dec g G.rcx;
  G.jne g "top";
  G.sys_marker g 7;
  G.sys_exit g 0;
  let env = Env.create () in
  let ctx = Context.create ~vcpu_id:0 in
  let k = Kernel.create env ctx in
  Kernel.register_program k ~name:"init" (G.assemble g);
  Kernel.boot k;
  (Domain.create ~kernel:k ~core ~config:Config.tiny env ctx, k, ctx)

let expected_sum iters =
  Int64.of_int ((iters * (iters + 1) / 2) + (3 * iters))

let small_schedule =
  { Sample.ff_insns = 20_000; warmup_insns = 2_000; measure_insns = 3_000 }

let test_sampled_run_deterministic () =
  let run () =
    let d, k, _ = loop_domain ~iters:40_000 () in
    let r = Sample.run ~schedule:small_schedule d in
    Alcotest.(check bool) "shut down" true (Kernel.is_shutdown k);
    ( List.map (fun iv -> (iv.Sample.iv_insns, iv.Sample.iv_cycles)) r.Sample.intervals,
      r.Sample.total_insns,
      r.Sample.cpi )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "interval-exact determinism" true (a = b);
  let ivs, _, _ = a in
  Alcotest.(check bool) "several intervals measured" true (List.length ivs >= 3)

let test_sampled_matches_seq_architecturally () =
  let iters = 30_000 in
  let d_seq, k_seq, ctx_seq = loop_domain ~core:"seq" ~iters () in
  Domain.submit d_seq "-core seq -run";
  ignore (Domain.run ~max_cycles:1_000_000_000 d_seq);
  Alcotest.(check bool) "seq shut down" true (Kernel.is_shutdown k_seq);
  let d, k, ctx = loop_domain ~iters () in
  let r = Sample.run ~schedule:small_schedule d in
  Alcotest.(check bool) "sampled shut down" true (Kernel.is_shutdown k);
  Alcotest.(check bool) "intervals measured" true (r.Sample.intervals <> []);
  Alcotest.(check int64) "same architectural result"
    (Context.gpr ctx_seq G.rbx) (Context.gpr ctx G.rbx);
  Alcotest.(check int64) "the right result" (expected_sum iters)
    (Context.gpr ctx G.rbx);
  Alcotest.(check int) "same instruction count" (Domain.insns d_seq)
    (Domain.insns d);
  Alcotest.(check (list int)) "same markers" [ 7 ]
    (List.map fst (Domain.markers d))

let test_sampled_cpi_accuracy () =
  let iters = 40_000 in
  (* ground truth: the same workload in full detail on the OOO core *)
  let d_full, _, _ = loop_domain ~iters () in
  Domain.submit d_full "-core ooo -run";
  ignore (Domain.run ~max_cycles:1_000_000_000 d_full);
  let full_cycles = float_of_int (S.get d_full.Domain.env.Env.stats "domain.cycles") in
  let d, _, _ = loop_domain ~iters () in
  let r = Sample.run ~schedule:small_schedule d in
  let err = abs_float (r.Sample.est_cycles -. full_cycles) /. full_cycles in
  Alcotest.(check bool)
    (Printf.sprintf "estimate within 10%% (err %.2f%%)" (100.0 *. err))
    true (err < 0.10);
  (* the report prints without raising *)
  let null = open_out Filename.null in
  Fun.protect ~finally:(fun () -> close_out null) (fun () ->
      Sample.report null r)

(* ---------- region-of-interest sampling ---------- *)

let test_roi_ptlcall_parse () =
  (match Ptlcall.parse "-startsample" with
  | [ Ptlcall.Sample_start ] -> ()
  | _ -> Alcotest.fail "-startsample");
  match Ptlcall.parse "-stopsample" with
  | [ Ptlcall.Sample_stop ] -> ()
  | _ -> Alcotest.fail "-stopsample"

let test_roi_gated_sampling () =
  (* setup loop, then an ROI of roi_iters iterations, then a tail loop;
     with ~roi:true only the bracketed region may be measured *)
  let roi_iters = 15_000 in
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  G.lii g G.rcx 5_000;
  G.label g "pre";
  G.dec g G.rcx;
  G.jne g "pre";
  G.ptlctl g "-startsample";
  G.lii g G.rbx 0;
  G.lii g G.rcx roi_iters;
  G.label g "top";
  G.add g G.rbx G.rcx;
  G.addi g G.rbx 3;
  G.dec g G.rcx;
  G.jne g "top";
  G.ptlctl g "-stopsample";
  G.lii g G.rcx 5_000;
  G.label g "post";
  G.dec g G.rcx;
  G.jne g "post";
  G.sys_exit g 0;
  let env = Env.create () in
  let ctx = Context.create ~vcpu_id:0 in
  let k = Kernel.create env ctx in
  Kernel.register_program k ~name:"init" (G.assemble g);
  Kernel.boot k;
  let d = Domain.create ~kernel:k ~core:"ooo" ~config:Config.tiny env ctx in
  let schedule =
    { Sample.ff_insns = 5_000; warmup_insns = 1_000; measure_insns = 2_000 }
  in
  let r = Sample.run ~roi:true ~schedule d in
  Alcotest.(check bool) "shut down" true (Kernel.is_shutdown k);
  Alcotest.(check bool) "measured inside the region" true
    (r.Sample.intervals <> []);
  (* the region is ~4 insns/iter; everything measured must fit in it *)
  Alcotest.(check bool)
    (Printf.sprintf "measurement confined to ROI (%d insns)"
       r.Sample.measured_insns)
    true
    (r.Sample.measured_insns <= (4 * roi_iters) + 8)

(* ---------- interval placement ---------- *)

let test_placement_parse () =
  let ok spec expect =
    match Sample.parse_placement spec with
    | Ok p ->
      Alcotest.(check string) ("parse " ^ spec) expect
        (Sample.placement_to_string p)
    | Error e -> Alcotest.failf "parse %s rejected: %s" spec e
  in
  ok "" "fixed";
  ok "fixed" "fixed";
  ok "stratified" "stratified";
  ok "rand:123" "rand:123";
  ok "rand:-7" "rand:-7";
  let rejects spec =
    Alcotest.(check bool) ("reject " ^ spec) true
      (Result.is_error (Sample.parse_placement spec))
  in
  rejects "rand";
  rejects "rand:";
  rejects "rand:xyz";
  rejects "bogus"

let test_placement_offsets () =
  let schedule =
    { Sample.ff_insns = 10_000; warmup_insns = 500; measure_insns = 700 }
  in
  let n = 16 in
  let period = Sample.period schedule in
  let window = schedule.Sample.warmup_insns + schedule.Sample.measure_insns in
  (* where each capture pass opens its windows: the instruction count at
     every capture point, and the offset that implies *)
  let points placement =
    let d, _ = Test_checkpoint.bare_loop ~iters:30_000 () in
    let ctx = d.Domain.ctx in
    let at = ref [] in
    let on_window _ _ = at := ctx.Context.insns_committed :: !at in
    ignore (Sample.run_capture ~placement ~on_window ~schedule d);
    let at = Array.of_list (List.rev !at) in
    Alcotest.(check bool) "enough windows" true (Array.length at >= n);
    Array.sub at 0 n
  in
  let offsets pts = Array.mapi (fun i p -> p - (i * period)) pts in
  (* fast-forwards end on basic-block boundaries (7-instruction blocks
     here), so each of a period's three drives may overshoot by up to 6
     instructions, and the drift accumulates over the periods *)
  let tol i = 18 * (i + 1) in
  let bounds name offs =
    Array.iteri
      (fun i o ->
        Alcotest.(check bool)
          (Printf.sprintf "%s offset %d in [0, ff]" name o)
          true
          (-tol i <= o && o <= schedule.Sample.ff_insns + tol i))
      offs
  in
  let fixed = points Sample.Fixed in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "fixed = ff" true (abs (o - 10_000) <= tol i))
    (offsets fixed);
  let seed = Test_seed.seed + 5 in
  let r1 = points (Sample.Rand_offset seed) in
  let r2 = points (Sample.Rand_offset seed) in
  bounds "rand" (offsets r1);
  Alcotest.(check bool) "rand per-seed deterministic" true (r1 = r2);
  Alcotest.(check bool) "rand differs across seeds" true
    (r1 <> points (Sample.Rand_offset (seed + 1)));
  Alcotest.(check bool) "rand offsets actually vary" true
    (Array.exists (fun o -> abs (o - (offsets r1).(0)) > 1_000) (offsets r1));
  let s = points Sample.Stratified in
  let so = offsets s in
  bounds "stratified" so;
  (* eight strata spaced ff/8 apart, then the sweep repeats *)
  for i = 0 to 6 do
    Alcotest.(check bool) "strata sweep ascends" true (so.(i) < so.(i + 1))
  done;
  Alcotest.(check bool) "strata cycle repeats" true (abs (so.(0) - so.(8)) <= tol 8);
  (* windows never overlap: each period's window fits before the next
     one opens, for every placement *)
  let no_overlap name pts =
    for i = 1 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s window %d disjoint from previous" name i)
        true
        (pts.(i) >= pts.(i - 1) + window)
    done
  in
  no_overlap "fixed" fixed;
  no_overlap "rand" r1;
  no_overlap "stratified" s

(* ---------- checkpoint-parallel sampling ---------- *)

(* the engine itself refuses kernel-hosted domains (the CLI offers
   --sample-jobs only with compute --bare) *)
let test_kernel_rejected () =
  let d, _, _ = loop_domain ~iters:100 () in
  Alcotest.check_raises "run_parallel rejects kernel domains"
    (Invalid_argument
       "Sample.run_capture: kernel-hosted domains are not checkpointable")
    (fun () -> ignore (Fleet.run_parallel ~schedule:small_schedule d))

let render_report r =
  let path = Filename.temp_file "optlsim_sample" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Sample.report oc r;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

(* --sample-jobs 1 ≡ --sample-jobs 4: 1 worker vs 4 workers over the
   same checkpoints must produce byte-identical per-interval snapshot
   pairs, aggregates and rendered reports, regardless of scheduling and
   completion order. (The serial supervisor is not a referee here: it
   times the windows in-line, so its intervals can differ.) *)
let test_parallel_equivalence () =
  let schedule =
    { Sample.ff_insns = 6_000; warmup_insns = 800; measure_insns = 1_200 }
  in
  let placement = Sample.Rand_offset (Test_seed.seed + 11) in
  let run jobs =
    let d, _ = Test_checkpoint.bare_loop ~iters:20_000 () in
    let rp = Fleet.run_parallel ~placement ~jobs ~schedule d in
    Alcotest.(check bool) "nothing quarantined" true
      (rp.Fleet.rp_quarantined = []);
    rp.Fleet.rp_result
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "several intervals" true
    (List.length a.Sample.intervals >= 5);
  let strip r =
    List.map
      (fun iv ->
        ( iv.Sample.iv_index,
          iv.Sample.iv_insns,
          iv.Sample.iv_cycles,
          iv.Sample.iv_before,
          iv.Sample.iv_after ))
      r.Sample.intervals
  in
  (* snapshot records contain the full counter arrays and paths, so this
     is a byte-identical comparison of every per-interval statistic *)
  Alcotest.(check bool) "identical per-interval snapshot pairs" true
    (strip a = strip b);
  Alcotest.(check bool) "identical aggregates" true
    (a.Sample.cpi = b.Sample.cpi
    && a.Sample.cpi_mean = b.Sample.cpi_mean
    && a.Sample.cpi_ci95 = b.Sample.cpi_ci95
    && a.Sample.est_cycles = b.Sample.est_cycles
    && a.Sample.total_insns = b.Sample.total_insns
    && a.Sample.total_cycles = b.Sample.total_cycles);
  Alcotest.(check string) "identical rendered reports" (render_report a)
    (render_report b)

(* random offsets beat the fixed schedule on a workload whose phase
   length divides the sampling period (SMARTS' aliasing caveat): the
   fixed window always lands on the same phase, the random ones mix *)
let test_placement_antialias () =
  let phase_a = 100 and phase_b = 100 in
  let iter_len = phase_a + phase_b + 2 (* dec + jne *) in
  let iters = 120 in
  let build () =
    let g = G.create () in
    G.lii g G.rbx 3;
    G.lii g G.rcx iters;
    G.label g "top";
    (* phase A: independent single-cycle adds (low CPI) *)
    for _ = 1 to phase_a do
      G.addi g G.rax 1
    done;
    (* phase B: dependent multiply chain (latency-bound, high CPI) *)
    for _ = 1 to phase_b do
      G.imul g G.rbx G.rbx
    done;
    G.dec g G.rcx;
    G.jne g "top";
    G.ins g Insn.Hlt;
    G.assemble g
  in
  (* ground truth: the whole workload in full detail on the OOO core *)
  let truth =
    let m = Machine.create (build ()) in
    let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:10_000_000 in
    float_of_int cycles /. float_of_int (Ooo.insns core)
  in
  let sampled placement =
    let m = Machine.create (build ()) in
    let d =
      Domain.create ~core:"ooo" ~config:Config.tiny m.Machine.env
        m.Machine.ctx
    in
    let schedule =
      (* period = 4 aliasing workload iterations *)
      {
        Sample.ff_insns = (4 * iter_len) - 70;
        warmup_insns = 30;
        measure_insns = 40;
      }
    in
    let rp = Fleet.run_parallel ~placement ~jobs:1 ~schedule d in
    let r = rp.Fleet.rp_result in
    Alcotest.(check bool) "intervals measured" true (r.Sample.intervals <> []);
    r.Sample.cpi
  in
  let err cpi = abs_float (cpi -. truth) /. truth in
  let e_fixed = err (sampled Sample.Fixed) in
  let e_rand = err (sampled (Sample.Rand_offset (Test_seed.seed + 23))) in
  Alcotest.(check bool)
    (Printf.sprintf
       "random offsets reduce aliasing error (fixed %.1f%%, rand %.1f%%)"
       (100.0 *. e_fixed) (100.0 *. e_rand))
    true (e_rand < e_fixed)

(* delta capture accounting: the master pass spends far fewer bytes on
   delta checkpoints than full per-window images would cost, and the
   deltas replay deterministically *)
let test_capture_delta_footprint () =
  let schedule =
    { Sample.ff_insns = 6_000; warmup_insns = 800; measure_insns = 1_200 }
  in
  let d, _ = Test_checkpoint.bare_loop ~iters:20_000 () in
  let cr = Sample.run_capture ~schedule d in
  Alcotest.(check bool) "several intervals" true
    (Array.length cr.Sample.cr_deltas >= 5);
  Alcotest.(check bool)
    (Printf.sprintf "delta bytes (%d) well under full bytes (%d)"
       cr.Sample.cr_delta_bytes cr.Sample.cr_full_bytes)
    true
    (cr.Sample.cr_delta_bytes * 2 < cr.Sample.cr_full_bytes);
  (* replaying the same delta twice is bit-identical (pure function of
     checkpoint + schedule) *)
  let replay () =
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
      ~index:2 ~base:cr.Sample.cr_base cr.Sample.cr_deltas.(2)
  in
  let a = replay () and b = replay () in
  Alcotest.(check bool) "interval measured" true (a <> None);
  Alcotest.(check bool) "delta replay deterministic" true (a = b)

let suite =
  [
    Alcotest.test_case "flag validation" `Quick test_check_flags;
    Alcotest.test_case "aggregate arithmetic" `Quick test_aggregate;
    Alcotest.test_case "warming is silent" `Quick test_warming_silent;
    Alcotest.test_case "sampled run deterministic" `Quick
      test_sampled_run_deterministic;
    Alcotest.test_case "architectural equality vs seq" `Quick
      test_sampled_matches_seq_architecturally;
    Alcotest.test_case "cpi accuracy" `Quick test_sampled_cpi_accuracy;
    Alcotest.test_case "roi ptlcall parse" `Quick test_roi_ptlcall_parse;
    Alcotest.test_case "roi-gated sampling" `Quick test_roi_gated_sampling;
    Alcotest.test_case "placement parse" `Quick test_placement_parse;
    Alcotest.test_case "placement offsets" `Quick test_placement_offsets;
    Alcotest.test_case "run_parallel rejects kernel domains" `Quick
      test_kernel_rejected;
    Alcotest.test_case "jobs=1 vs jobs=4 byte-identical" `Quick
      test_parallel_equivalence;
    Alcotest.test_case "delta capture footprint" `Quick
      test_capture_delta_footprint;
    Alcotest.test_case "random offsets beat aliasing" `Quick
      test_placement_antialias;
  ]
