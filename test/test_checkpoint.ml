(* Checkpoint round-trip property tests (lib/hyper/checkpoint base +
   delta checkpoints): capturing a warmed bare machine, running on,
   resuming and diffing must be lossless — and a single planted mutation
   in any checkpointed subsystem (cache LRU, TLB entry, predictor
   counter, architectural register, guest memory page, page-walk cache,
   hugepage TLB entry) must be detected with the owning subsystem named,
   then healed by [resume_delta]. The referee is built from public API
   only: a fresh worker rebuilt from base + delta, captured with
   [Checkpoint.capture] and [Uarch.snapshot]. *)

module Machine = Ptl_arch.Machine
module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Insn = Ptl_isa.Insn
module Regs = Ptl_isa.Regs
module W64 = Ptl_util.W64
module Config = Ptl_ooo.Config
module Uarch = Ptl_ooo.Uarch
module Hierarchy = Ptl_mem.Hierarchy
module Cache = Ptl_mem.Cache
module Tlb = Ptl_mem.Tlb
module Predictor = Ptl_bpred.Predictor
module Domain = Ptl_hyper.Domain
module Checkpoint = Ptl_hyper.Checkpoint
module Sample = Ptl_sample.Sample
module G = Ptl_workloads.Gasm

(* A bare machine (no minios kernel) running the standard 4-insn
   arithmetic loop, ending in hlt; the only kind of domain delta
   checkpoints support. *)
let bare_loop ?(core = "ooo") ~iters () =
  let g = G.create () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rbx 0;
  G.lii g G.rcx iters;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.add g G.rbx G.rcx;
  G.addi g G.rbx 3;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  (Domain.create ~core ~config:Config.tiny m.Machine.env m.Machine.ctx, m)

(* Drive natively with functional warming for ~[insns] instructions so
   every checkpointed structure (cache tags/LRU, TLBs, predictor) holds
   real content before we snapshot it. *)
let warmed_machine ?(insns = 20_000) () =
  let d, m = bare_loop ~iters:200_000 () in
  let u = Uarch.create ~prefix:"ooo" Config.tiny d.Domain.env.Env.stats in
  Domain.set_uarch d u;
  let (_ : unit -> unit) = Sample.install_warming d u in
  Domain.enter_native d;
  let target = d.Domain.ctx.Context.insns_committed + insns in
  let alive = ref true in
  while !alive && d.Domain.ctx.Context.insns_committed < target do
    alive := Domain.drive_once d
  done;
  (* warming off: drop the functional core's hooks *)
  d.Domain.native.Ptl_arch.Seqcore.hooks <- None;
  (d, u, m)

let no_diff name diff =
  Alcotest.(check (list string)) name [] diff

let contains line needle =
  let nl = String.length needle and ll = String.length line in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  go 0

(* drive the domain natively for ~[insns] more instructions *)
let drive d ~insns =
  let ctx = d.Domain.ctx in
  let target = ctx.Context.insns_committed + insns in
  let alive = ref true in
  while !alive && ctx.Context.insns_committed < target do
    alive := Domain.drive_once d
  done

(* The checkpoint under test: a base image, ~[insns] more native
   instructions, then a delta against it. *)
let base_and_delta ?(insns = 4_000) d u =
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base = Checkpoint.capture_base ~uarch:u env in
  drive d ~insns;
  (base, Checkpoint.capture_delta ~base ~uarch:u env ctx)

(* A fresh worker's state rebuilt from base + delta (the replay path). *)
let worker ?(config = Config.tiny) ~base dk =
  let stats = Ptl_stats.Statstree.create () in
  let env = Env.create ~stats ~mem:(Checkpoint.clone_mem ~base dk) () in
  let ctx = Context.create ~vcpu_id:0 in
  let u = Uarch.create ~prefix:"ooo" config stats in
  no_diff "worker restores exactly"
    (Checkpoint.restore_delta_into_fit ~base dk ~uarch:u env ctx);
  (env, ctx, u)

(* The referee: a worker rebuilt from base + delta, captured whole.
   [diff_ref] lists every difference between live state and it, each
   line naming the subsystem; empty = exact. *)
type referee = { r_machine : Checkpoint.t; r_uarch : Uarch.snapshot }

let referee ?config ~base dk =
  let env, ctx, u = worker ?config ~base dk in
  { r_machine = Checkpoint.capture env ctx; r_uarch = Uarch.snapshot u }

let diff_ref r ~uarch env ctx =
  Checkpoint.diff r.r_machine env ctx @ Uarch.diff uarch r.r_uarch

(* plant one mutation: the referee diff must name [needle], and
   resuming from the checkpoint must heal it *)
let plant ~base dk r ~uarch env ctx name mutate needle =
  mutate ();
  let diff = diff_ref r ~uarch env ctx in
  Alcotest.(check bool) (name ^ ": detected") true (diff <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s: diff names %s (got: %s)" name needle
       (String.concat " | " diff))
    true
    (List.exists (fun line -> contains line needle) diff);
  Checkpoint.resume_delta ~base dk ~uarch env ctx;
  no_diff (name ^ ": healed by resume") (diff_ref r ~uarch env ctx)

(* capture -> run on -> resume -> diff must be empty; and the resumed
   machine must re-run to the same architectural result *)
let test_round_trip () =
  let d, u, _ = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = base_and_delta d u in
  let r = referee ~base dk in
  no_diff "clean immediately after capture" (diff_ref r ~uarch:u env ctx);
  (* run forward: the live state must drift away from the checkpoint *)
  drive d ~insns:5_000;
  Alcotest.(check bool) "drifted after running" true
    (diff_ref r ~uarch:u env ctx <> []);
  let rbx_first =
    let budget = ref 2_000_000 in
    while Domain.drive_once d && !budget > 0 do decr budget done;
    Context.gpr ctx G.rbx
  in
  Checkpoint.resume_delta ~base dk ~uarch:u env ctx;
  no_diff "exact after resume" (diff_ref r ~uarch:u env ctx);
  (* replay from the checkpoint: same architectural end state *)
  let budget = ref 2_000_000 in
  while Domain.drive_once d && !budget > 0 do decr budget done;
  Alcotest.(check int64) "replay reaches the same result" rbx_first
    (Context.gpr ctx G.rbx)

(* one planted mutation per checkpointed subsystem; each must be
   detected (with the subsystem named) and healed by resume_delta *)
let test_planted_mutations () =
  let d, u, m = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = base_and_delta d u in
  let r = referee ~base dk in
  no_diff "clean baseline" (diff_ref r ~uarch:u env ctx);
  let plant = plant ~base dk r ~uarch:u env ctx in
  plant "cache LRU"
    (fun () ->
      Alcotest.(check bool) "a valid line to touch" true
        (Cache.debug_touch_lru u.Uarch.hierarchy.Hierarchy.l1d))
    "L1D";
  plant "TLB entry"
    (fun () ->
      Tlb.insert u.Uarch.dtlb 0x7bcd_e123L
        { Tlb.vpn = 0L; mfn = 0x999; writable = true; user = true; nx = false; huge = false })
    "dtlb";
  plant "predictor counter"
    (fun () ->
      Predictor.warm_cond u.Uarch.bpred ~rip:0x40_0040L ~taken:true;
      (* a saturated counter plus an unchanged history can absorb one
         update; the opposite direction is then guaranteed to move *)
      if diff_ref r ~uarch:u env ctx = [] then
        Predictor.warm_cond u.Uarch.bpred ~rip:0x40_0040L ~taken:false)
    "bpred";
  plant "architectural register"
    (fun () ->
      Context.set_gpr ctx Regs.r8
        (Int64.logxor (Context.gpr ctx Regs.r8) 0xDEAD_BEEFL))
    "r8";
  plant "dirty page"
    (fun () ->
      let vaddr = Machine.heap_base in
      let old = Machine.read_mem m ~vaddr ~size:W64.B1 in
      Machine.write_mem m ~vaddr ~size:W64.B1
        ~value:(Int64.logxor old 0xFFL))
    "mem: frame"

(* delta checkpoints: a footprint well under the full image, and a
   resume re-arms dirty tracking exactly — a delta captured right after
   resuming is the resumed delta itself (same pages, context including
   the TLB generation, clock and uarch components) *)
let test_delta_round_trip () =
  let d, u, _ = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = base_and_delta d u in
  Alcotest.(check bool) "delta has a footprint" true
    (Checkpoint.delta_pages dk > 0);
  Alcotest.(check bool) "delta smaller than the full image" true
    (Checkpoint.delta_page_bytes dk < Checkpoint.full_page_bytes env);
  let r = referee ~base dk in
  drive d ~insns:4_000;
  Alcotest.(check bool) "drifted past the capture point" true
    (diff_ref r ~uarch:u env ctx <> []);
  Checkpoint.resume_delta ~base dk ~uarch:u env ctx;
  no_diff "base + delta resumes exactly" (diff_ref r ~uarch:u env ctx);
  Alcotest.(check bool) "a delta recaptured after resume is identical" true
    (Checkpoint.capture_delta ~base ~uarch:u env ctx = dk)

(* the worker-side rebuild path (lib/sample replay_delta, lib/fleet):
   a copy-on-write clone of the base overlaid with the delta, plus
   fresh context/uarch, must equal the capture moment exactly *)
let test_delta_clone_worker_state () =
  let d, u, _ = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = base_and_delta d u in
  let live = Checkpoint.capture env ctx and live_u = Uarch.snapshot u in
  let wenv, wctx, wu = worker ~base dk in
  no_diff "fresh worker state equals the capture moment"
    (Checkpoint.diff live wenv wctx @ Uarch.diff wu live_u);
  (* and the worker's writes never leak into the shared base image *)
  let probe = Int64.to_int Machine.heap_base in
  let before = Ptl_mem.Phys_mem.read64 base.Checkpoint.bk_mem probe in
  Ptl_mem.Phys_mem.write64 wenv.Env.mem probe
    (Int64.logxor before 0xDEAD_BEEFL);
  Alcotest.(check int64) "base image untouched by worker writes" before
    (Ptl_mem.Phys_mem.read64 base.Checkpoint.bk_mem probe)

(* a resume must reproduce the run exactly, so resuming into a uarch
   built for a different geometry is refused rather than started cold
   (replay, by contrast, tolerates it: the worker reports what it
   restored cold) *)
let test_resume_rejects_geometry () =
  let d, u, _ = warmed_machine () in
  let base, dk = base_and_delta d u in
  let env, ctx, _ = worker ~base dk in
  let other =
    Uarch.create ~prefix:"ooo" Config.k8_ptlsim (Ptl_stats.Statstree.create ())
  in
  Alcotest.(check bool) "replay restores the other geometry cold" true
    (Checkpoint.restore_delta_into_fit ~base dk ~uarch:other env ctx <> []);
  match Checkpoint.resume_delta ~base dk ~uarch:other env ctx with
  | () -> Alcotest.fail "resume accepted a uarch of different geometry"
  | exception Invalid_argument _ -> ()

(* Page-walk-cache and hugepage-TLB state are part of the uarch
   checkpoint: a delta carrying them round-trips losslessly, a planted
   mutation in either structure is detected with the owner named, and
   resume heals it. *)
let test_pwc_hugepage_checkpoint () =
  let cfg =
    { Config.tiny with Config.pwc_entries = 8; Config.tlb_hugepages = true }
  in
  let g = G.create () in
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  let env = m.Machine.env and ctx = m.Machine.ctx in
  let u = Uarch.create ~prefix:"ooo" cfg env.Ptl_arch.Env.stats in
  let pwc = Option.get u.Uarch.pwc in
  let module Pwc = Ptl_mem.Pwc in
  let base = Checkpoint.capture_base ~uarch:u env in
  (* warm the walk caches and a hugepage TLB entry after the base, so
     the delta carries them *)
  Pwc.insert pwc 0x40000000L ~pte_addrs:[ 0x1000; 0x2000; 0x3000; 0x4000 ];
  Pwc.insert pwc 0x7_f800_0000L ~pte_addrs:[ 0x1000; 0x5000; 0x6000 ];
  let huge_entry mfn =
    { Tlb.vpn = 0L; mfn; writable = true; user = true; nx = false; huge = true }
  in
  Tlb.insert u.Uarch.dtlb 0x40057123L (huge_entry 0x200);
  let dk = Checkpoint.capture_delta ~base ~uarch:u env ctx in
  let r = referee ~config:cfg ~base dk in
  no_diff "clean after capture" (diff_ref r ~uarch:u env ctx);
  let plant = plant ~base dk r ~uarch:u env ctx in
  plant "PWC entry"
    (fun () ->
      Pwc.insert pwc 0x1_2340_0000L
        ~pte_addrs:[ 0x1000; 0x7000; 0x8000; 0x9000 ])
    "pwc";
  plant "hugepage TLB entry"
    (fun () -> Tlb.insert u.Uarch.dtlb 0x40257123L (huge_entry 0x400))
    "dtlb";
  (* the huge entry survived both round trips: one entry still covers
     its whole 2M region *)
  (match Tlb.lookup_quiet u.Uarch.dtlb 0x401FF458L with
  | Tlb.L1_hit e | Tlb.L2_hit e ->
    Alcotest.(check bool) "restored entry still huge" true e.Tlb.huge
  | Tlb.Tlb_miss -> Alcotest.fail "huge entry lost in the round trip");
  (* a PWC of different geometry refuses the snapshot (fit-tolerant
     restores then start it cold instead) *)
  let restore_into cfg =
    let fresh = Uarch.create ~prefix:"ooo" cfg (Ptl_stats.Statstree.create ()) in
    Uarch.restore fresh ~base:r.r_uarch ~delta:(Uarch.delta u ~base:r.r_uarch)
  in
  Alcotest.(check (list string)) "checkpoint kept the PWC snapshot" []
    (restore_into cfg);
  Alcotest.(check (list string)) "geometry mismatch does not fit" [ "pwc" ]
    (restore_into { cfg with Config.pwc_entries = 16 })

let suite =
  [
    Alcotest.test_case "machine + uarch round trip is lossless" `Quick
      test_round_trip;
    Alcotest.test_case "pwc + hugepage TLB checkpoint" `Quick
      test_pwc_hugepage_checkpoint;
    Alcotest.test_case "planted mutations are detected" `Quick
      test_planted_mutations;
    Alcotest.test_case "delta round trip is lossless" `Quick
      test_delta_round_trip;
    Alcotest.test_case "delta clone rebuilds worker state" `Quick
      test_delta_clone_worker_state;
    Alcotest.test_case "resume rejects a different geometry" `Quick
      test_resume_rejects_geometry;
  ]
