(* The benchmark harness: regenerates every table and figure of the paper
   (PTLsim, ISPASS 2007) plus the ablation studies called out in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- one experiment
     OPTLSIM_SCALE=2 ...                 -- scale the rsync file set

   Experiments print the paper's reported values next to ours; absolute
   numbers differ (different substrate scale) but the shape — who wins,
   signs of the deltas, crossovers — is the reproduction target. *)

open Ptl_util
module Stats = Ptl_stats.Statstree
module Timelapse = Ptl_stats.Timelapse
module Config = Ptl_ooo.Config
module Ooo = Ptl_ooo.Ooo_core
module Registry = Ptl_ooo.Registry
module Multicore = Ptl_ooo.Multicore
module Inorder = Ptl_ooo.Inorder_core
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Seqcore = Ptl_arch.Seqcore
module Kernel = Ptl_kernel.Kernel
module Domain = Ptl_hyper.Domain
module Ptlmon = Ptl_hyper.Ptlmon
module Cosim = Ptl_hyper.Cosim
module RB = Ptl_workloads.Rsync_bench
module FS = Ptl_workloads.Fileset
module G = Ptl_workloads.Gasm
module Tbl = Ptl_util.Tablefmt
module Insn = Ptl_isa.Insn
module Flags = Ptl_isa.Flags
module Coherence = Ptl_mem.Coherence
module Tlb = Ptl_mem.Tlb
module Trace = Ptl_trace.Trace
module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Fleet = Ptl_fleet.Fleet
module Sweep = Ptl_sweep.Sweep
module Paired = Ptl_stats.Paired

let scale =
  match Sys.getenv_opt "OPTLSIM_SCALE" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let fileset =
  { FS.default with FS.nfiles = 24 * scale; max_size = 16_384 }

let banner name = Printf.printf "\n===== %s =====\n%!" name

(* ---------------------------------------------------------------- *)
(* Table 1: K8 silicon vs the PTLsim model on the rsync benchmark   *)
(* ---------------------------------------------------------------- *)

(* the paper's reported values (in thousands, Table 1) *)
let paper_native = [ 1_482_035; 990_360; 1_097_012; 6_118; 414_285; 138_062; 5_727; 1_593 ]
let paper_ptlsim = [ 1_545_810; 1_005_795; 1_436_979; 6_564; 418_072; 135_857; 5_392; 3_895 ]

let run_rsync machine ~snapshots =
  let d, k =
    Ptlmon.launch
      (RB.spec ~fileset ~machine
         ~snapshot_interval:(if snapshots then Some 100_000 else None)
         ())
  in
  Domain.submit d "-core ooo -run";
  ignore (Domain.run ~max_cycles:8_000_000_000 d);
  if not (RB.verify_sync k) then
    failwith "rsync benchmark did not synchronize correctly";
  (d, k)

let exp_table1 () =
  banner "Table 1: accuracy of the PTLsim model vs reference K8 silicon";
  Printf.printf "workload: rsync over ssh, %d files, %d KB total (paper: 6186 files, 48 MB)\n%!"
    fileset.FS.nfiles
    (FS.src_bytes (FS.generate fileset) / 1024);
  Printf.printf "reference = k8-silicon config (2-level TLB + PDE cache, prefetch,\n";
  Printf.printf "weaker silicon predictor, uop-triad counting); model = k8-ptlsim config\n%!";
  let dn, _ = run_rsync Config.k8_silicon ~snapshots:false in
  let dm, _ = run_rsync Config.k8_ptlsim ~snapshots:false in
  let n = RB.metrics_of_stats dn.Domain.env.Env.stats ~triads:true in
  let m = RB.metrics_of_stats dm.Domain.env.Env.stats ~triads:false in
  let rows_values =
    [
      ("Cycles", n.RB.m_cycles, m.RB.m_cycles);
      ("x86 Insns Committed", n.RB.m_insns, m.RB.m_insns);
      ("uops", n.RB.m_uops, m.RB.m_uops);
      ("L1 D-cache Misses", n.RB.m_l1d_misses, m.RB.m_l1d_misses);
      ("L1 D-cache Accesses", n.RB.m_l1d_accesses, m.RB.m_l1d_accesses);
      ("Total Branches", n.RB.m_branches, m.RB.m_branches);
      ("Mispredicted Branches", n.RB.m_mispredicts, m.RB.m_mispredicts);
      ("DTLB Misses", n.RB.m_dtlb_misses, m.RB.m_dtlb_misses);
    ]
  in
  let rows =
    List.map2
      (fun (name, native, model) (pn, pp) ->
        [| name;
           string_of_int native;
           string_of_int model;
           Tbl.pct_diff (float_of_int native) (float_of_int model);
           Tbl.thousands (pn * 1000);
           Tbl.thousands (pp * 1000);
           Tbl.pct_diff (float_of_int pn) (float_of_int pp) |])
      rows_values
      (List.map2 (fun a b -> (a, b)) paper_native paper_ptlsim)
  in
  print_endline
    (Tbl.render
       ~headers:[| "Trial"; "Ref(ours)"; "Model(ours)"; "%Diff"; "Paper Native"; "Paper PTLsim"; "Paper %Diff" |]
       ~aligns:[| Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right |]
       rows);
  (* derived-rate rows, like the paper's percentage lines *)
  let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b) in
  Printf.printf "\nL1 miss rate:   ref %.2f%%  model %.2f%%   (paper: 1.48%% vs 1.57%%)\n"
    (pct n.RB.m_l1d_misses n.RB.m_l1d_accesses)
    (pct m.RB.m_l1d_misses m.RB.m_l1d_accesses);
  Printf.printf "mispredict %%:   ref %.2f%%  model %.2f%%   (paper: 4.15%% vs 3.97%%)\n"
    (pct n.RB.m_mispredicts n.RB.m_branches)
    (pct m.RB.m_mispredicts m.RB.m_branches);
  Printf.printf "DTLB miss rate: ref %.2f%%  model %.2f%%   (paper: 0.38%% vs 0.93%%)\n%!"
    (pct n.RB.m_dtlb_misses n.RB.m_dtlb_accesses)
    (pct m.RB.m_dtlb_misses m.RB.m_dtlb_accesses)

(* ---------------------------------------------------------------- *)
(* Figures 2 and 3: time-lapse plots over statistics snapshots       *)
(* ---------------------------------------------------------------- *)

let fig_run = ref None

let get_fig_run () =
  match !fig_run with
  | Some dk -> dk
  | None ->
    let dk = run_rsync Config.k8_ptlsim ~snapshots:true in
    fig_run := Some dk;
    dk

let exp_fig2 () =
  banner "Figure 2: time lapse of cycles per CPU mode (user/kernel/idle)";
  let d, _ = get_fig_run () in
  match d.Domain.timelapse with
  | None -> print_endline "no timelapse recorded"
  | Some tl ->
    let series path = Timelapse.ratio_series tl path "domain.cycles" in
    let user = series "domain.cycles_in_mode.user" in
    let kern = series "domain.cycles_in_mode.kernel" in
    let idle = series "domain.cycles_in_mode.idle" in
    Printf.printf "snapshot every 100K cycles; columns: user%% kernel%% idle%%\n";
    Printf.printf "phase markers: %s\n"
      (String.concat ", "
         (List.map
            (fun (m, c) -> Printf.sprintf "(%d)@%dK" m (c / 1000))
            (Domain.markers d)));
    List.iteri
      (fun i ((u, k), id) ->
        let bar frac ch =
          String.make (int_of_float (frac *. 30.0)) ch
        in
        Printf.printf "%4d |%-30s|%-30s|%-30s| u=%4.1f%% k=%4.1f%% i=%4.1f%%\n" i
          (bar u 'U') (bar k 'K') (bar id '.') (100. *. u) (100. *. k) (100. *. id))
      (List.map2 (fun a b -> (a, b)) (List.map2 (fun a b -> (a, b)) user kern) idle);
    let tot_u = List.fold_left ( +. ) 0. user /. float_of_int (max 1 (List.length user)) in
    let tot_k = List.fold_left ( +. ) 0. kern /. float_of_int (max 1 (List.length kern)) in
    let tot_i = List.fold_left ( +. ) 0. idle /. float_of_int (max 1 (List.length idle)) in
    Printf.printf
      "\noverall: user %.0f%%, kernel %.0f%%, idle %.0f%% (paper: kernel 15%%, idle 27%%)\n%!"
      (100. *. tot_u) (100. *. tot_k) (100. *. tot_i)

let exp_fig3 () =
  banner "Figure 3: time lapse of mispredict / DTLB miss / L1D miss rates";
  let d, _ = get_fig_run () in
  match d.Domain.timelapse with
  | None -> print_endline "no timelapse recorded"
  | Some tl ->
    let r n d' = Timelapse.ratio_series tl n d' in
    let misp = r "ooo.commit.mispredicts" "ooo.commit.cond_branches" in
    let dtlb = r "ooo.dcache.dtlb_misses" "ooo.dcache.dtlb_accesses" in
    let l1 =
      let m = Timelapse.series tl "ooo.mem.L1D.misses" in
      let h = Timelapse.series tl "ooo.mem.L1D.hits" in
      List.map2
        (fun mi hi -> if mi + hi = 0 then 0.0 else float_of_int mi /. float_of_int (mi + hi))
        m h
    in
    Printf.printf "columns: mispredict%% (paper red), DTLB miss%% (green), L1D miss%% (blue)\n";
    List.iteri
      (fun i ((mp, dt), l) ->
        Printf.printf "%4d | mispred %5.2f%% %-20s| dtlb %5.2f%% %-20s| l1d %5.2f%% %-20s\n" i
          (100. *. mp) (String.make (min 20 (int_of_float (mp *. 200.))) '#')
          (100. *. dt) (String.make (min 20 (int_of_float (dt *. 200.))) '#')
          (100. *. l) (String.make (min 20 (int_of_float (l *. 200.))) '#'))
      (List.map2 (fun a b -> (a, b)) (List.map2 (fun a b -> (a, b)) misp dtlb) l1)

(* A hot in-cache loop, the workload of the guard-overhead and
   bbcache-ablation experiments. *)
let hot_loop_machine () =
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rcx 1_000_000_000;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.addi g G.rbx 3;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  Machine.create (G.assemble g)

(* ---------------------------------------------------------------- *)
(* Run-to-run variance (paper: <1% across perfctr re-runs)           *)
(* ---------------------------------------------------------------- *)

(* ---------------------------------------------------------------- *)
(* Guard overhead: cost of the invariant sweep at sampling intervals *)
(* ---------------------------------------------------------------- *)

let exp_guard_overhead () =
  banner "Guard overhead: invariant-sweep cost at sampling intervals {1, 64, 4096}";
  Printf.printf
    "the guard supervisor samples the full structural invariant set (ROB/LSQ\n\
     ordering, physreg conservation, iq slots, cache tag/LRU + MSHR, TLB)\n\
     every N core steps; the default N=64 must stay under 10%% overhead.\n%!";
  let module Guard = Ptl_guard.Guard in
  let measured_cycles = 200_000 in
  let run_once ~interval =
    let m = hot_loop_machine () in
    let inst =
      Registry.build "ooo" Config.k8_ptlsim m.Machine.env [| m.Machine.ctx |]
    in
    let inst =
      match interval with
      | None -> inst
      | Some n ->
        Guard.wrap
          ~config:{ Guard.default_config with Guard.interval = n }
          ~env:m.Machine.env ~ctx:m.Machine.ctx inst
    in
    for _ = 1 to 30_000 do
      inst.Registry.step ()
    done;
    let t0 = Sys.time () in
    for _ = 1 to measured_cycles do
      inst.Registry.step ()
    done;
    Sys.time () -. t0
  in
  (* two unguarded runs; the fastest is the baseline *)
  let base =
    match List.sort compare [ run_once ~interval:None; run_once ~interval:None ] with
    | b :: _ -> b
    | [] -> assert false
  in
  Printf.printf "guard off:            %.3f s (%.0f cycles/s)\n%!" base
    (float_of_int measured_cycles /. base);
  let default_over = ref 0.0 in
  List.iter
    (fun n ->
      let t = run_once ~interval:(Some n) in
      let over = 100.0 *. (t -. base) /. base in
      if n = 64 then default_over := over;
      Printf.printf "guard interval %-6d %.3f s (%.0f cycles/s)  %+.1f%%\n%!" n t
        (float_of_int measured_cycles /. t)
        over)
    [ 4096; 64; 1 ];
  if !default_over >= 10.0 then begin
    Printf.printf
      "FAIL: default sampling interval (64) costs %+.1f%% (>= 10%%)\n%!"
      !default_over;
    exit 1
  end;
  Printf.printf "PASS: default interval (64) overhead %+.1f%% < 10%%\n%!"
    !default_over

let exp_variance () =
  banner "Run-to-run variance of the 4-counter measurement protocol";
  Printf.printf
    "the paper re-ran the benchmark 4x (4 perfctrs at a time) and saw <1%%\n\
     variance; the simulator is fully deterministic so ours must be 0.\n";
  let small = { FS.default with FS.nfiles = 6; min_size = 2_000; max_size = 6_000 } in
  let results =
    List.init 3 (fun i ->
        let d, _ =
          Ptlmon.launch (RB.spec ~fileset:small ~snapshot_interval:None ())
        in
        Domain.submit d "-core seq -run";
        ignore (Domain.run ~max_cycles:2_000_000_000 d);
        let st = d.Domain.env.Env.stats in
        let c = Stats.get st "domain.cycles" in
        let n = Domain.insns d in
        Printf.printf "run %d: cycles=%d insns=%d\n%!" i c n;
        (c, n))
  in
  let all_equal = List.for_all (fun r -> r = List.hd results) results in
  Printf.printf "variance: %s\n%!" (if all_equal then "0.00% (identical)" else "NONZERO (bug!)")

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

let exp_ablate_bbcache () =
  banner "Ablation: basic block cache (simulation speedup, §2.1)";
  let run ~flush_every_block =
    let m = hot_loop_machine () in
    let core = Seqcore.create m.Machine.env m.Machine.ctx in
    let t0 = Sys.time () in
    let blocks = 200_000 in
    for _ = 1 to blocks do
      if flush_every_block then Ptl_uop.Bbcache.clear core.Seqcore.bbcache;
      ignore (Seqcore.step_block core)
    done;
    Sys.time () -. t0
  in
  let cached = run ~flush_every_block:false in
  let uncached = run ~flush_every_block:true in
  Printf.printf "with bb cache:    %.3f s host time\n" cached;
  Printf.printf "decode-per-fetch: %.3f s host time\n" uncached;
  Printf.printf "speedup from the basic block cache: %.1fx\n%!" (uncached /. cached)

let store_load_machine () =
  (* stores immediately followed by dependent loads: the pattern load
     hoisting speculates on *)
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rcx 20_000;
  G.label g "top";
  G.st g ~base:G.rbp ~disp:0 G.rcx ();
  G.st g ~base:G.rbp ~disp:64 G.rcx ();
  (* an independent load the core could hoist past the stores *)
  G.ld g G.rax ~base:G.rbp ~disp:128 ();
  G.add g G.rbx G.rax;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  Machine.create (G.assemble g)

let exp_ablate_hoist () =
  banner "Ablation: load hoisting (disabled for K8 in §5)";
  let run hoist =
    let m = store_load_machine () in
    let config = { Config.k8_ptlsim with Config.load_hoisting = hoist } in
    let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:50_000_000 in
    let st = m.Machine.env.Env.stats in
    (cycles, Stats.get st "ooo.issue.replays", Stats.get st "ooo.lsq.hoist_violations")
  in
  let c_off, replays_off, _ = run false in
  let c_on, replays_on, viol = run true in
  Printf.printf "no hoisting (K8):  %d cycles, %d replays\n" c_off replays_off;
  Printf.printf "with hoisting:     %d cycles, %d replays, %d violations\n" c_on replays_on viol;
  Printf.printf "hoisting speedup: %.2fx\n%!" (float_of_int c_off /. float_of_int c_on)

let exp_ablate_banks () =
  banner "Ablation: L1D bank-conflict enforcement (K8 8-bank pseudo dual-port, §5)";
  (* two loads per cycle to the same bank *)
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rcx 20_000;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ~disp:0 ();
  G.ld g G.rdx ~base:G.rbp ~disp:512 () (* same bank (bit 3..5 equal), different line *);
  G.add g G.rbx G.rax;
  G.add g G.rbx G.rdx;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  let run banking =
    let m = Machine.create img in
    let config = { Config.k8_ptlsim with Config.enforce_banking = banking } in
    let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:50_000_000 in
    (cycles, Stats.get m.Machine.env.Env.stats "ooo.issue.bank_conflicts",
     Ooo.insns core)
  in
  let c_off, _, _ = run false in
  let c_on, conflicts, insns = run true in
  Printf.printf "banking off: %d cycles\n" c_off;
  Printf.printf "banking on:  %d cycles, %d conflicts (%d insns)\n" c_on conflicts insns;
  Printf.printf "conflict replays add %.1f%% cycles (paper: <2%% of accesses conflict)\n%!"
    (100.0 *. (float_of_int c_on -. float_of_int c_off) /. float_of_int c_off)

let exp_ablate_tlb () =
  banner "Ablation: 1-level DTLB (PTLsim) vs K8 2-level TLB + PDE cache";
  (* touch many pages so the 32-entry L1 TLB thrashes *)
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.r12 50;
  G.label g "outer";
  G.lii g G.rcx 200 (* pages *);
  G.mov g G.rsi G.rbp;
  G.label g "top";
  G.ld g G.rax ~base:G.rsi ();
  G.add g G.rbx G.rax;
  G.addi g G.rsi 4096;
  G.dec g G.rcx;
  G.jne g "top";
  G.dec g G.r12;
  G.jne g "outer";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  let run dtlb =
    let m = Machine.create ~heap_pages:256 img in
    let config = { Config.k8_ptlsim with Config.dtlb } in
    let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:100_000_000 in
    let st = m.Machine.env.Env.stats in
    (cycles, Stats.get st "ooo.dcache.dtlb_misses", Stats.get st "ooo.dcache.dtlb_accesses")
  in
  let c1, m1, a1 = run Tlb.ptlsim_config in
  let c2, m2, a2 = run Tlb.k8_config in
  Printf.printf "PTLsim 1-level TLB: %d cycles, %d misses / %d accesses (%.2f%%)\n" c1 m1 a1
    (100.0 *. float_of_int m1 /. float_of_int (max 1 a1));
  Printf.printf "K8 2-level + PDE:   %d cycles, %d misses / %d accesses (%.2f%%)\n" c2 m2 a2
    (100.0 *. float_of_int m2 /. float_of_int (max 1 a2));
  Printf.printf
    "miss ratio 1-level/2-level: %.1fx (the paper's Table 1 DTLB row: +144%%)\n%!"
    (float_of_int m1 /. float_of_int (max 1 m2))

(* ---------------------------------------------------------------- *)
(* Virtual-memory scenarios (lib/vm)                                 *)
(* ---------------------------------------------------------------- *)

(* GUPS over a table far beyond L1-DTLB reach, measured four ways: 4K
   pages, 2M pages (one TLB entry covers the whole table), page-walk
   caches off vs on, and demand-paged under minios with the CLOCK
   reclaimer thrashing (swap + TLB shootdown IPIs). The budget asserts
   the headline VM result: hugepages must cut DTLB MPKI on GUPS.
   Writes BENCH_vm.json for the CI artifact. *)
let exp_vm () =
  banner "Virtual-memory scenarios: hugepages, walk caches, demand paging";
  let module Microbench = Ptl_workloads.Microbench in
  let slots = 1 lsl 16 (* 512 KB table: 128 pages vs 32 L1-DTLB entries *) in
  let steps = 60_000 * scale in
  let heap_pages = slots * 8 / 4096 in
  let run_bare ?(hugepages = false) () =
    let m =
      Machine.create ~heap_pages ~huge_heap:hugepages
        (Microbench.gups ~slots ~steps ())
    in
    let config = { Config.k8_ptlsim with Config.tlb_hugepages = hugepages } in
    let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:400_000_000 in
    let st = m.Machine.env.Env.stats in
    (cycles, max 1 (Ooo.insns core), Stats.get st "ooo.dcache.dtlb_misses")
  in
  let mpki misses insns = 1000.0 *. float_of_int misses /. float_of_int insns in
  let cpi cycles insns = float_of_int cycles /. float_of_int insns in
  let c4, i4, m4 = run_bare () in
  let c2, i2, m2 = run_bare ~hugepages:true () in
  Printf.printf "GUPS, %d slots x %d steps (out-of-order core, k8 config):\n" slots steps;
  Printf.printf "  4K pages:          %9d cycles, CPI %.3f, DTLB MPKI %7.2f\n"
    c4 (cpi c4 i4) (mpki m4 i4);
  Printf.printf "  2M pages:          %9d cycles, CPI %.3f, DTLB MPKI %7.2f\n"
    c2 (cpi c2 i2) (mpki m2 i2);
  (* the PWC contrast needs a latency-bound chain: on GUPS the OoO core
     overlaps walks across independent loads, so the saved walk loads
     vanish into ILP. A pointer chase serializes every load, putting the
     full 4-load walk on the critical path — what the walk caches trim. *)
  let pwc_entries = 16 in
  let chase_steps = 30_000 * scale in
  let run_chase ~pwc =
    let vaddr, blob = Microbench.chase_table ~slots ~seed:3 in
    let m =
      Machine.create ~heap_pages
        (Microbench.pointer_chase ~slots ~steps:chase_steps)
    in
    Machine.load_blob m.Machine.env m.Machine.ctx ~vaddr ~bytes:blob
      ~writable:true ~user:true;
    let config = { Config.k8_ptlsim with Config.pwc_entries = pwc } in
    let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
    let cycles = Ooo.run core ~max_cycles:400_000_000 in
    (cycles, Stats.get m.Machine.env.Env.stats "ooo.dcache.dtlb_misses")
  in
  let cw0, _ = run_chase ~pwc:0 in
  let cw1, mw1 = run_chase ~pwc:pwc_entries in
  Printf.printf
    "pointer chase, %d slots x %d steps (every load's 4-load walk on the \
     critical path):\n"
    slots chase_steps;
  Printf.printf "  no walk caches:    %9d cycles\n" cw0;
  Printf.printf "  %2d-entry PWC:      %9d cycles\n" pwc_entries cw1;
  let walk_saved = cw0 - cw1 in
  let saved_per_miss = float_of_int walk_saved /. float_of_int (max 1 mw1) in
  Printf.printf
    "  walk caches save %d cycles (%.2f cycles per DTLB miss): the cached\n\
    \  PDP/PD tables turn 4-load walks into 1-2 loads\n%!"
    walk_saved saved_per_miss;
  (* demand paging: the same access pattern as a minios user process,
     first with frames to spare, then squeezed under a tight watermark
     so CLOCK reclaim + swap + shootdown IPIs carry the cost *)
  let run_demand ~watermark =
    let img =
      Microbench.gups ~base:Ptl_kernel.Abi.user_code_base
        ~heap:Ptl_kernel.Abi.user_heap_base ~user:true ~slots:(1 lsl 14)
        ~steps:(20_000 * scale) ()
    in
    let env = Env.create () in
    let ctx = Context.create ~vcpu_id:0 in
    let kc =
      {
        Kernel.default_config with
        Kernel.demand_paging = true;
        vm_watermark = watermark;
        vm_batch = 4;
      }
    in
    let k = Kernel.create ~config:kc env ctx in
    Kernel.register_program k ~name:"init" img;
    Kernel.boot k;
    let d = Domain.create ~kernel:k ~core:"ooo" ~config:Config.k8_ptlsim env ctx in
    Domain.submit d "-run";
    ignore (Domain.run ~max_cycles:800_000_000 d);
    if not (Kernel.is_shutdown k) then
      failwith "vm bench: demand-paged gups did not run to completion";
    let st = env.Env.stats in
    ( Stats.get st "domain.cycles",
      Stats.get st "vm.faults",
      Stats.get st "vm.evictions",
      Stats.get st "vm.shootdowns" )
  in
  let cyc_lazy, faults_lazy, _, _ = run_demand ~watermark:0 in
  let cyc_thrash, faults_thrash, evictions, shootdowns = run_demand ~watermark:16 in
  let shootdown_cost =
    float_of_int (cyc_thrash - cyc_lazy) /. float_of_int (max 1 shootdowns)
  in
  Printf.printf "demand-paged GUPS under minios (every fault a real #PF):\n";
  Printf.printf "  frames to spare:   %9d cycles, %d hard faults\n" cyc_lazy faults_lazy;
  Printf.printf
    "  watermark 16:      %9d cycles, %d faults, %d evictions, %d shootdown IPIs\n"
    cyc_thrash faults_thrash evictions shootdowns;
  Printf.printf
    "  reclaim cost: %.1f cycles per shootdown (swap-out + IPI + refault)\n%!"
    shootdown_cost;
  let huge_wins = mpki m2 i2 < mpki m4 i4 in
  let pwc_wins = walk_saved > 0 in
  let pass = huge_wins && pwc_wins && evictions > 0 && shootdowns > 0 in
  Printf.printf
    "budget (2M DTLB MPKI < 4K, PWC shortens walks, reclaim exercised): %s\n%!"
    (if pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_vm.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"vm\",\n\
    \  \"scale\": %d,\n\
    \  \"gups\": { \"slots\": %d, \"steps\": %d },\n\
    \  \"pages_4k\": { \"cycles\": %d, \"insns\": %d, \"cpi\": %.4f, \
     \"dtlb_misses\": %d, \"dtlb_mpki\": %.3f },\n\
    \  \"pages_2m\": { \"cycles\": %d, \"insns\": %d, \"cpi\": %.4f, \
     \"dtlb_misses\": %d, \"dtlb_mpki\": %.3f },\n\
    \  \"pwc\": { \"entries\": %d, \"workload\": \"pointer_chase\", \
     \"cycles_off\": %d, \"cycles_on\": %d, \"dtlb_misses\": %d,\n\
    \            \"walk_cycles_saved\": %d, \"saved_per_miss\": %.3f },\n\
    \  \"demand\": { \"faults\": %d, \"thrash_faults\": %d, \"evictions\": \
     %d, \"shootdowns\": %d,\n\
    \              \"cycles_unconstrained\": %d, \"cycles_watermark16\": %d,\n\
    \              \"cycles_per_shootdown\": %.2f },\n\
    \  \"budget\": { \"hugepages_reduce_dtlb_mpki\": %b, \
     \"pwc_shortens_walks\": %b, \"reclaim_exercised\": %b },\n\
    \  \"pass\": %b\n\
     }\n"
    scale slots steps c4 i4 (cpi c4 i4) m4 (mpki m4 i4) c2 i2 (cpi c2 i2) m2
    (mpki m2 i2) pwc_entries cw0 cw1 mw1 walk_saved saved_per_miss faults_lazy
    faults_thrash evictions shootdowns cyc_lazy cyc_thrash shootdown_cost
    huge_wins pwc_wins
    (evictions > 0 && shootdowns > 0)
    pass;
  close_out oc;
  Printf.printf "wrote BENCH_vm.json\n%!";
  if not pass then exit 1

(* ---------------------------------------------------------------- *)
(* SMT scaling and coherence                                         *)
(* ---------------------------------------------------------------- *)

let lock_image iters =
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.r12 iters;
  G.label g "again";
  G.label g "spin";
  G.lii g G.rax 1;
  G.ins g (Insn.Xchg (W64.B8, Insn.Mem (Insn.mem_bd G.rbp 0L), G.rax));
  G.cmpi g G.rax 0;
  G.jne g "spin";
  G.ld g G.rcx ~base:G.rbp ~disp:8 ();
  G.addi g G.rcx 1;
  G.st g ~base:G.rbp ~disp:8 G.rcx ();
  G.xor g G.rax G.rax;
  G.st g ~base:G.rbp G.rax ();
  (* non-critical work *)
  G.lii g G.rdx 20;
  G.label g "work";
  G.addi g G.rbx 1;
  G.dec g G.rdx;
  G.jne g "work";
  G.dec g G.r12;
  G.jne g "again";
  G.ins g Insn.Hlt;
  G.assemble g

let exp_smt () =
  banner "SMT scaling: shared-memory lock contention, 1..4 threads (§2.2, §4.4)";
  let iters = 400 in
  let img = lock_image iters in
  List.iter
    (fun threads ->
      let m = Machine.create img in
      let ctxs =
        Array.init threads (fun i ->
            if i = 0 then m.Machine.ctx
            else begin
              let c = Context.create ~vcpu_id:i in
              Context.restore c ~snapshot:m.Machine.ctx;
              c
            end)
      in
      let config = { Config.k8_ptlsim with Config.smt_threads = threads } in
      let core = Ooo.create config m.Machine.env ctxs in
      let cycles = Ooo.run core ~max_cycles:100_000_000 in
      let counter = Machine.read_mem m ~vaddr:(Int64.add Machine.heap_base 8L) ~size:W64.B8 in
      let st = m.Machine.env.Env.stats in
      Printf.printf
        "%d thread(s): %8d cycles, counter=%Ld (expect %d), interlock contended=%d\n%!"
        threads cycles counter (threads * iters)
        (Stats.get st "interlock.contended"))
    [ 1; 2; 4 ]

let exp_coherence () =
  banner "Multi-core: instant-visibility vs MOESI coherence (§4.4 / future work §7)";
  let img = lock_image 200 in
  let run coherence name =
    let m = Machine.create img in
    let ctx2 = Context.create ~vcpu_id:1 in
    Context.restore ctx2 ~snapshot:m.Machine.ctx;
    let mc = Multicore.create ~coherence Config.k8_ptlsim m.Machine.env [| m.Machine.ctx; ctx2 |] in
    let cycles = Multicore.run mc ~max_cycles:200_000_000 in
    let st = m.Machine.env.Env.stats in
    Printf.printf "%-22s %9d cycles, transfers=%d invalidations=%d\n%!" name cycles
      (Stats.get st "coherence.transfers")
      (Stats.get st "coherence.invalidations")
  in
  run Coherence.Instant "instant visibility:";
  run (Coherence.Moesi { transfer_latency = 20; invalidate_latency = 10 }) "MOESI (20cy transfer):"

(* ---------------------------------------------------------------- *)
(* Co-simulation and sampled simulation                              *)
(* ---------------------------------------------------------------- *)

let exp_cosim () =
  banner "Co-simulation self-validation (§2.3)";
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rcx 3000;
  G.lii g G.rbx 12345;
  G.label g "top";
  G.imuli g G.rbx 1103515245;
  G.addi g G.rbx 12345;
  G.mov g G.rax G.rbx;
  G.andi g G.rax 0xFF8;
  G.mov g G.rdx G.rbp;
  G.add g G.rdx G.rax;
  G.ld g G.rax ~base:G.rdx ();
  G.addi g G.rax 1;
  G.st g ~base:G.rdx G.rax ();
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  (match Cosim.validate ~config:Config.k8_ptlsim ~check_every:500 ~max_insns:20_000 img with
  | Cosim.Agree n ->
    Printf.printf "out-of-order core vs functional reference: AGREE over %d instructions\n%!" n
  | Cosim.Diverged { after_insns; diffs; _ } ->
    Printf.printf "DIVERGED after %d insns:\n  %s\n%!" after_insns (String.concat "\n  " diffs))

let exp_fuzz () =
  banner "Differential fuzzing throughput (random cosim, §2.3)";
  let module Fuzz = Ptl_fuzz.Harness in
  List.iter
    (fun core ->
      let t0 = Unix.gettimeofday () in
      let s = Fuzz.run ~core ~seed:42 ~iters:200 () in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf
        "%-8s %d programs, %d instructions, %d divergences  (%.1f progs/s, \
         %.0f insns/s)\n%!"
        core s.Fuzz.s_iters s.Fuzz.s_gen_insns
        (List.length s.Fuzz.s_divergences)
        (float_of_int s.Fuzz.s_iters /. dt)
        (float_of_int s.Fuzz.s_gen_insns /. dt))
    [ "ooo"; "inorder"; "smt" ];
  (* cost of catching + shrinking a planted bug *)
  let t0 = Unix.gettimeofday () in
  let s =
    Fuzz.run ~core:"ooo" ~inject:(Fuzz.flags_bug ~after:2) ~check_every:1
      ~seed:7 ~iters:20 ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  let shrunk =
    List.fold_left (fun a d -> a + d.Fuzz.d_insns) 0 s.Fuzz.s_divergences
  in
  Printf.printf
    "injected bug: %d/%d caught, mean shrunk size %.1f insns, %.2f s/case\n%!"
    (List.length s.Fuzz.s_divergences)
    s.Fuzz.s_iters
    (float_of_int shrunk /. float_of_int (max 1 (List.length s.Fuzz.s_divergences)))
    (dt /. float_of_int (max 1 (List.length s.Fuzz.s_divergences)))

let exp_sampling () =
  banner "Statistical sampled simulation (§2.3: spans of sim within native runs)";
  let make_domain cmd =
    let g = G.create () in
    G.jmp g "main";
    G.label g "main";
    G.ptlctl g cmd;
    G.li g G.rbp Ptl_kernel.Abi.user_heap_base;
    G.lii g G.rcx 120_000;
    G.label g "top";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.addi g G.rbx 7;
    G.dec g G.rcx;
    G.jne g "top";
    G.sys_marker g 999;
    G.sys_exit g 0;
    let env = Env.create () in
    let ctx = Context.create ~vcpu_id:0 in
    let k = Kernel.create env ctx in
    Kernel.register_program k ~name:"init" (G.assemble g);
    Kernel.boot k;
    Domain.create ~kernel:k ~config:Config.k8_ptlsim env ctx
  in
  (* full simulation *)
  let d_full = make_domain "-core ooo -run" in
  ignore (Domain.run ~max_cycles:100_000_000 d_full);
  let full_insns = Stats.get d_full.Domain.env.Env.stats "ooo.commit.insns" in
  let full_cycles = Stats.get d_full.Domain.env.Env.stats "ooo.cycles" in
  let full_ipc = float_of_int full_insns /. float_of_int (max 1 full_cycles) in
  (* sampled: simulate 50k-insn spans out of every ~200k (repeat 3x) *)
  let d_s =
    make_domain
      "-core ooo -run -stopinsns 50k : -native : -run -stopinsns 50k : -native"
  in
  (* the command list runs its phases; schedule re-entry into sim later *)
  ignore (Domain.run ~max_cycles:100_000_000 d_s);
  let s_insns = Stats.get d_s.Domain.env.Env.stats "ooo.commit.insns" in
  let s_cycles = Stats.get d_s.Domain.env.Env.stats "ooo.cycles" in
  let s_ipc = float_of_int s_insns /. float_of_int (max 1 s_cycles) in
  Printf.printf "full simulation:   %8d insns, IPC %.3f\n" full_insns full_ipc;
  Printf.printf "sampled (2 spans): %8d simulated insns (of %d total), IPC %.3f\n"
    s_insns (Domain.insns d_s) s_ipc;
  Printf.printf "sampled IPC error vs full: %+.1f%%\n%!"
    (100.0 *. (s_ipc -. full_ipc) /. full_ipc)

(* The lib/sample supervisor on a long two-phase microbench: wall-clock
   speedup vs full detail, and aggregate-CPI error of the estimate.
   Writes BENCH_sample.json for the CI artifact. *)
let exp_sample () =
  banner "Sampled simulation engine (lib/sample): speedup and CPI error";
  (* a long homogeneous loop mixing memory, ALU and multiply work — the
     steady-state microbench shape where periodic sampling is exact up to
     boundary effects (phased workloads need periods incommensurate with
     the phase length; see --sample-period) *)
  let make_domain () =
    let g = G.create () in
    G.jmp g "main";
    G.label g "main";
    G.li g G.rbp Ptl_kernel.Abi.user_heap_base;
    G.lii g G.rcx (1_200_000 * scale);
    G.label g "top";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.imuli g G.rbx 1103515245;
    G.addi g G.rbx 12345;
    G.dec g G.rcx;
    G.jne g "top";
    G.sys_marker g 999;
    G.sys_exit g 0;
    let env = Env.create () in
    let ctx = Context.create ~vcpu_id:0 in
    let k = Kernel.create env ctx in
    Kernel.register_program k ~name:"init" (G.assemble g);
    Kernel.boot k;
    Domain.create ~kernel:k ~core:"ooo" ~config:Config.k8_ptlsim env ctx
  in
  (* full-detail reference *)
  let d_full = make_domain () in
  Domain.submit d_full "-core ooo -run";
  let t0 = Unix.gettimeofday () in
  ignore (Domain.run ~max_cycles:2_000_000_000 d_full);
  let t_full = Unix.gettimeofday () -. t0 in
  let full_insns = Domain.insns d_full in
  let full_cycles = Stats.get d_full.Domain.env.Env.stats "domain.cycles" in
  let full_cpi = float_of_int full_cycles /. float_of_int (max 1 full_insns) in
  (* sampled run: ~1.2% of instructions in detail *)
  let schedule =
    { Sample.ff_insns = 2_470_000; warmup_insns = 10_000; measure_insns = 20_000 }
  in
  let d_s = make_domain () in
  let t0 = Unix.gettimeofday () in
  let r = Sample.run ~max_cycles:2_000_000_000 ~schedule d_s in
  let t_samp = Unix.gettimeofday () -. t0 in
  let speedup = t_full /. t_samp in
  let err_pct =
    100.0 *. (r.Sample.est_cycles -. float_of_int full_cycles)
    /. float_of_int (max 1 full_cycles)
  in
  Sample.report stdout r;
  Printf.printf "full detail: %d insns, %d cycles (CPI %.4f) in %.2f s\n"
    full_insns full_cycles full_cpi t_full;
  Printf.printf "sampled:     %d insns, %d measured in detail, %.2f s\n"
    r.Sample.total_insns r.Sample.measured_insns t_samp;
  Printf.printf "speedup %.1fx, estimated-cycle error %+.2f%%\n" speedup err_pct;
  let pass = speedup >= 10.0 && Float.abs err_pct <= 5.0 in
  Printf.printf "budget (>=10x, <=5%% error): %s\n%!"
    (if pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_sample.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"sample\",\n\
    \  \"scale\": %d,\n\
    \  \"full\": { \"insns\": %d, \"cycles\": %d, \"cpi\": %.6f, \"seconds\": \
     %.3f },\n\
    \  \"sampled\": { \"insns\": %d, \"measured_insns\": %d, \"intervals\": \
     %d,\n\
    \               \"cpi\": %.6f, \"cpi_mean\": %.6f, \"cpi_ci95\": %.6f,\n\
    \               \"est_cycles\": %.0f, \"seconds\": %.3f },\n\
    \  \"speedup\": %.2f,\n\
    \  \"cpi_error_pct\": %.3f,\n\
    \  \"budget\": { \"min_speedup\": 10.0, \"max_cpi_error_pct\": 5.0 },\n\
    \  \"pass\": %b\n\
     }\n"
    scale full_insns full_cycles full_cpi t_full r.Sample.total_insns
    r.Sample.measured_insns
    (List.length r.Sample.intervals)
    r.Sample.cpi r.Sample.cpi_mean r.Sample.cpi_ci95 r.Sample.est_cycles
    t_samp speedup err_pct pass;
  close_out oc;
  Printf.printf "wrote BENCH_sample.json\n%!"

(* Checkpoint-parallel sampling (--sample-jobs): a bare-machine loop
   sampled three ways — the serial supervisor (Sample.run), and
   Fleet.run_parallel (capture pass + replay pool) pinned to one job and
   fanned across 4 worker domains. The jobs=1 and jobs=4 merged reports must
   be bit-identical; the speedup budget only applies when the host
   actually has the cores (recorded as host_cores in the JSON).
   Writes BENCH_parallel_sample.json for the CI artifact. *)
let exp_parallel_sample () =
  banner "Checkpoint-parallel sampled simulation (--sample-jobs)";
  (* bare machine (no minios kernel): the only checkpointable kind.
     detail-heavy schedule (80k timed insns per 480k period) so the
     replayed windows — the part the workers parallelize — dominate
     wall clock *)
  let make_domain () =
    let g = G.create () in
    G.li g G.rbp Machine.heap_base;
    G.lii g G.rcx (800_000 * scale);
    G.label g "top";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.imuli g G.rbx 1103515245;
    G.addi g G.rbx 12345;
    G.dec g G.rcx;
    G.jne g "top";
    G.ins g Insn.Hlt;
    let m = Machine.create (G.assemble g) in
    Domain.create ~core:"ooo" ~config:Config.k8_ptlsim m.Machine.env
      m.Machine.ctx
  in
  let schedule =
    { Sample.ff_insns = 400_000; warmup_insns = 20_000; measure_insns = 60_000 }
  in
  let placement = Sample.Rand_offset 7 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let host_cores = Stdlib.Domain.recommended_domain_count () in
  Printf.printf "host cores (recommended_domain_count): %d\n%!" host_cores;
  let _r_serial, t_serial =
    time (fun () ->
        Sample.run ~placement ~max_cycles:2_000_000_000 ~schedule
          (make_domain ()))
  in
  Printf.printf "serial supervisor:        %.2f s\n%!" t_serial;
  let run_par jobs =
    time (fun () ->
        (Fleet.run_parallel ~placement ~max_cycles:2_000_000_000 ~jobs
           ~schedule (make_domain ()))
          .Fleet.rp_result)
  in
  let r1, t_j1 = run_par 1 in
  Printf.printf "parallel, jobs=1:         %.2f s\n%!" t_j1;
  let r4, t_j4 = run_par 4 in
  Printf.printf "parallel, jobs=4:         %.2f s\n%!" t_j4;
  Sample.report stdout r4;
  let identical = r1 = r4 in
  let speedup_vs_serial = t_serial /. t_j4 in
  let speedup_vs_j1 = t_j1 /. t_j4 in
  Printf.printf "jobs=4 vs serial: %.2fx   jobs=4 vs jobs=1: %.2fx\n"
    speedup_vs_serial speedup_vs_j1;
  Printf.printf "jobs=1 vs jobs=4 merged reports: %s\n%!"
    (if identical then "BIT-IDENTICAL" else "DIFFER (bug!)");
  (* the speedup budget needs cores to spread across; on smaller hosts
     only the equivalence half of the budget is enforceable. Measured
     against jobs=1, which isolates the fan-out from the serial-vs-
     capture engine difference: with delta checkpoints the capture pass
     is cheap, so 4 replay workers must win at least 1.5x *)
  let speedup_applicable = host_cores >= 4 in
  let pass =
    identical && ((not speedup_applicable) || speedup_vs_j1 >= 1.5)
  in
  Printf.printf "budget (bit-identical%s): %s\n%!"
    (if speedup_applicable then " and >=1.5x vs jobs=1"
     else Printf.sprintf " only; >=1.5x waived, host has %d core(s)" host_cores)
    (if pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_parallel_sample.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"parallel_sample\",\n\
    \  \"scale\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"placement\": \"%s\",\n\
    \  \"schedule\": { \"ff_insns\": %d, \"warmup_insns\": %d, \
     \"measure_insns\": %d },\n\
    \  \"intervals\": %d,\n\
    \  \"serial_seconds\": %.3f,\n\
    \  \"jobs1_seconds\": %.3f,\n\
    \  \"jobs4_seconds\": %.3f,\n\
    \  \"speedup_jobs4_vs_serial\": %.2f,\n\
    \  \"speedup_jobs4_vs_jobs1\": %.2f,\n\
    \  \"reports_bit_identical\": %b,\n\
    \  \"sampled\": { \"cpi\": %.6f, \"cpi_mean\": %.6f, \"cpi_ci95\": \
     %.6f, \"est_cycles\": %.0f },\n\
    \  \"budget\": { \"min_speedup_vs_jobs1\": 1.5, \"speedup_applicable\": \
     %b },\n\
    \  \"pass\": %b\n\
     }\n"
    scale host_cores
    (Sample.placement_to_string placement)
    schedule.Sample.ff_insns schedule.Sample.warmup_insns
    schedule.Sample.measure_insns
    (List.length r4.Sample.intervals)
    t_serial t_j1 t_j4 speedup_vs_serial speedup_vs_j1 identical
    r4.Sample.cpi r4.Sample.cpi_mean r4.Sample.cpi_ci95 r4.Sample.est_cycles
    speedup_applicable pass;
  close_out oc;
  Printf.printf "wrote BENCH_parallel_sample.json\n%!";
  if not identical then exit 1

(* The distributed sampling fleet (optlsim capture/serve/work/replay):
   one master pass spills a durable interval store, then the same store
   is consumed three ways — a serial in-process replay, a 2-worker-
   process fleet over the unix-socket job server, and a fully cached
   re-run. All three merged results must be bit-identical; the fleet
   speedup budget only applies when the host has the cores; the delta
   checkpoints must be measurably smaller than full images. Writes
   BENCH_fleet.json for the CI artifact. *)
let exp_fleet () =
  banner "Distributed sampling fleet (capture / serve / work)";
  let make_domain () =
    let g = G.create () in
    G.li g G.rbp Machine.heap_base;
    G.lii g G.rcx (400_000 * scale);
    G.label g "top";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.imuli g G.rbx 1103515245;
    G.addi g G.rbx 12345;
    G.dec g G.rcx;
    G.jne g "top";
    G.ins g Insn.Hlt;
    let m = Machine.create (G.assemble g) in
    Domain.create ~core:"ooo" ~config:Config.k8_ptlsim m.Machine.env
      m.Machine.ctx
  in
  let schedule =
    { Sample.ff_insns = 200_000; warmup_insns = 10_000; measure_insns = 30_000 }
  in
  let placement = Sample.Rand_offset 7 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let host_cores = Stdlib.Domain.recommended_domain_count () in
  Printf.printf "host cores (recommended_domain_count): %d\n%!" host_cores;
  let dir = Filename.temp_file "optlsim_fleet" "" in
  Sys.remove dir;
  let sock = dir ^ ".sock" in
  let cr, t_capture =
    time (fun () ->
        Sample.run_capture ~placement ~max_cycles:2_000_000_000 ~schedule
          (make_domain ()))
  in
  let store =
    match
      Store.create ~dir ~workload:"bench-fleet" ~core:"ooo" ~schedule
        ~placement:(Sample.placement_to_string placement) cr
        ~config:Config.k8_ptlsim
    with
    | Ok s -> s
    | Error e -> failwith (Store.error_to_string e)
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  Printf.printf
    "capture: %.2f s, %d interval(s), deltas %d bytes vs full %d bytes \
     (%.1fx smaller)\n%!"
    t_capture intervals cr.Sample.cr_delta_bytes cr.Sample.cr_full_bytes
    (float_of_int cr.Sample.cr_full_bytes
    /. float_of_int (max 1 cr.Sample.cr_delta_bytes));
  (* the fleet first (cache is empty), two real worker processes *)
  let workers = 2 in
  let sv, t_fleet =
    time (fun () ->
        let pids =
          List.init workers (fun _ ->
              match Unix.fork () with
              | 0 ->
                (* child: one fleet worker, then straight out — no
                   shared exit handlers, no bench epilogue *)
                (match Fleet.work ~retries:150 ~connect:sock () with
                | Ok _ -> Unix._exit 0
                | Error msg ->
                  prerr_endline ("fleet worker: " ^ msg);
                  Unix._exit 1)
              | pid -> pid)
        in
        let sv = Fleet.serve ~lease_timeout:60.0 ~socket:sock store in
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
        sv)
  in
  Printf.printf "fleet, %d worker processes: %.2f s (%d replayed, %d \
                 re-queued)\n%!"
    workers t_fleet sv.Fleet.sv_replayed sv.Fleet.sv_requeued;
  (* serial baseline on the same store, cache emptied first *)
  Array.iter
    (fun f ->
      if String.length f >= 7 && String.sub f 0 7 = "result-" then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let rp_serial, t_serial =
    time (fun () ->
        match Fleet.replay ~jobs:1 store with
        | Ok rp -> rp
        | Error e -> failwith (Store.error_to_string e))
  in
  Printf.printf "serial replay (jobs=1):   %.2f s\n%!" t_serial;
  (* cached re-run: everything from the (checkpoint, config) cache *)
  let rp_cached, t_cached =
    time (fun () ->
        match Fleet.replay ~jobs:1 store with
        | Ok rp -> rp
        | Error e -> failwith (Store.error_to_string e))
  in
  Printf.printf "cached re-run:            %.2f s (%d/%d from cache)\n%!"
    t_cached rp_cached.Fleet.rp_cached intervals;
  Sample.report stdout sv.Fleet.sv_result;
  let identical =
    sv.Fleet.sv_result = rp_serial.Fleet.rp_result
    && sv.Fleet.sv_result = rp_cached.Fleet.rp_result
  in
  let speedup = t_serial /. t_fleet in
  let delta_shrinks = cr.Sample.cr_delta_bytes < cr.Sample.cr_full_bytes in
  Printf.printf "fleet vs serial: %.2fx   merged reports: %s\n%!" speedup
    (if identical then "BIT-IDENTICAL" else "DIFFER (bug!)");
  let speedup_applicable = host_cores >= 2 in
  let pass =
    identical && delta_shrinks
    && ((not speedup_applicable) || speedup >= 1.2)
  in
  Printf.printf "budget (bit-identical, deltas < full%s): %s\n%!"
    (if speedup_applicable then " and >=1.2x vs serial"
     else Printf.sprintf "; speedup waived, host has %d core(s)" host_cores)
    (if pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"fleet\",\n\
    \  \"scale\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"workers\": %d,\n\
    \  \"schedule\": { \"ff_insns\": %d, \"warmup_insns\": %d, \
     \"measure_insns\": %d },\n\
    \  \"intervals\": %d,\n\
    \  \"capture_seconds\": %.3f,\n\
    \  \"capture_delta_bytes\": %d,\n\
    \  \"capture_image_bytes\": %d,\n\
    \  \"delta_shrink_factor\": %.2f,\n\
    \  \"serial_seconds\": %.3f,\n\
    \  \"fleet_seconds\": %.3f,\n\
    \  \"cached_seconds\": %.3f,\n\
    \  \"speedup_fleet_vs_serial\": %.2f,\n\
    \  \"replayed_by_fleet\": %d,\n\
    \  \"leases_requeued\": %d,\n\
    \  \"reports_bit_identical\": %b,\n\
    \  \"sampled\": { \"cpi\": %.6f, \"cpi_mean\": %.6f, \"cpi_ci95\": \
     %.6f, \"est_cycles\": %.0f },\n\
    \  \"budget\": { \"min_speedup\": 1.2, \"speedup_applicable\": %b, \
     \"deltas_smaller_than_full\": %b },\n\
    \  \"pass\": %b\n\
     }\n"
    scale host_cores workers schedule.Sample.ff_insns
    schedule.Sample.warmup_insns schedule.Sample.measure_insns intervals
    t_capture cr.Sample.cr_delta_bytes cr.Sample.cr_full_bytes
    (float_of_int cr.Sample.cr_full_bytes
    /. float_of_int (max 1 cr.Sample.cr_delta_bytes))
    t_serial t_fleet t_cached speedup sv.Fleet.sv_replayed
    sv.Fleet.sv_requeued identical sv.Fleet.sv_result.Sample.cpi
    sv.Fleet.sv_result.Sample.cpi_mean sv.Fleet.sv_result.Sample.cpi_ci95
    sv.Fleet.sv_result.Sample.est_cycles speedup_applicable delta_shrinks
    pass;
  close_out oc;
  Printf.printf "wrote BENCH_fleet.json\n%!";
  if not (identical && delta_shrinks) then exit 1

(* ---------------------------------------------------------------- *)
(* Matched-pair design-space sweep: paired vs independent CIs         *)
(* ---------------------------------------------------------------- *)

(* Plant a small memory-latency delta and show that matched pairs
   (every leg replaying the *same* captured intervals — common random
   numbers) resolve it while independent runs at the same interval
   budget cannot. The workload alternates cache-friendly phases (one
   hot line) with memory-hostile phases (64-byte stride over a region
   twice the tiny config's L2), so the per-interval CPIs have a large
   workload variance that swamps the planted delta in the independent
   formula but cancels exactly in the per-interval differences.
   Writes BENCH_sweep.json for the CI artifact. *)
let exp_sweep () =
  banner "Matched-pair design-space sweep (paired vs independent CIs)";
  let make_domain () =
    let g = G.create () in
    G.li g G.rbp Machine.heap_base;
    G.lii g G.rdx (24 * scale);
    G.label g "phase";
    (* friendly: hammer one line *)
    G.lii g G.rcx 3_000;
    G.label g "fr";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.dec g G.rcx;
    G.jne g "fr";
    (* hostile: stride over 128 KB (the tiny L2 holds 64 KB) *)
    G.li g G.rsi Machine.heap_base;
    G.lii g G.rcx 2_048;
    G.label g "ho";
    G.ld g G.rax ~base:G.rsi ();
    G.addi g G.rsi 64;
    G.dec g G.rcx;
    G.jne g "ho";
    G.dec g G.rdx;
    G.jne g "phase";
    G.ins g Insn.Hlt;
    let m = Machine.create (G.assemble g) in
    Domain.create ~core:"ooo" ~config:Config.tiny m.Machine.env m.Machine.ctx
  in
  let schedule =
    { Sample.ff_insns = 30_000; warmup_insns = 1_000; measure_insns = 2_000 }
  in
  let placement = Sample.Rand_offset 11 in
  let cr =
    Sample.run_capture ~placement ~max_cycles:2_000_000_000 ~schedule
      (make_domain ())
  in
  let dir = Filename.temp_file "optlsim_sweep" "" in
  Sys.remove dir;
  let store =
    match
      Store.create ~dir ~workload:"bench-sweep" ~core:"ooo" ~schedule
        ~placement:(Sample.placement_to_string placement) cr
        ~config:Config.tiny
    with
    | Ok s -> s
    | Error e -> failwith (Store.error_to_string e)
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  Printf.printf "capture: %d interval(s) into %s\n%!" intervals dir;
  (* the planted delta: tiny's memory is 40 cycles away; the legs move
     it +/-2 cycles, a few percent of CPI on this workload *)
  let spec_text = "mem.latency=38,42" in
  let spec =
    match Sweep.parse spec_text with
    | Ok s -> s
    | Error e -> failwith (Sweep.error_to_string e)
  in
  let run () =
    match Sweep.run ~jobs:1 store spec with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let r1 = run () in
  let r2 = run () in
  Sweep.render stdout r1;
  let rendered_identical = Sweep.render_string r1 = Sweep.render_string r2 in
  let cached_rerun =
    List.for_all (fun rk -> rk.Sweep.rk.Sweep.lr_replayed = 0) r2.Sweep.rep_ranked
  in
  let legs = List.filter (fun rk -> not rk.Sweep.rk_base) r1.Sweep.rep_ranked in
  let best = List.hd r1.Sweep.rep_ranked in
  let better_first = best.Sweep.rk.Sweep.lr_leg.Sweep.l_name = "mem.latency=38" in
  let paired_resolve =
    List.for_all (fun rk -> Paired.paired_excludes_zero rk.Sweep.rk_vs_base) legs
  in
  let indep_blind =
    List.for_all
      (fun rk -> not (Paired.indep_excludes_zero rk.Sweep.rk_vs_base))
      legs
  in
  let base_cpi = r1.Sweep.rep_base.Sweep.lr_result.Sample.cpi in
  let planted_pct rk =
    100.0 *. Float.abs rk.Sweep.rk_vs_base.Paired.delta_mean /. base_cpi
  in
  List.iter
    (fun rk ->
      let cmp = rk.Sweep.rk_vs_base in
      Printf.printf
        "%s: dCPI %+.4f (%.1f%% of base), paired CI %.4f %s zero, \
         independent CI %.4f %s zero (%.1fx tighter)\n%!"
        rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name cmp.Paired.delta_mean
        (planted_pct rk) cmp.Paired.delta_ci95
        (if Paired.paired_excludes_zero cmp then "EXCLUDES" else "includes")
        cmp.Paired.indep_ci95
        (if Paired.indep_excludes_zero cmp then "EXCLUDES" else "includes")
        (cmp.Paired.indep_ci95 /. Float.max 1e-9 cmp.Paired.delta_ci95))
    legs;
  let pass =
    better_first && paired_resolve && indep_blind && rendered_identical
    && cached_rerun
  in
  Printf.printf
    "budget (planted-better leg first, paired CIs exclude zero, \
     independent CIs do not, cached re-run byte-identical): %s\n%!"
    (if pass then "PASS" else "FAIL");
  let leg_json rk =
    let cmp = rk.Sweep.rk_vs_base in
    Printf.sprintf
      "{ \"leg\": \"%s\", \"rank\": %d, \"cpi\": %.6f, \"delta_mean\": \
       %.6f, \"delta_pct_of_base\": %.3f, \"paired_ci95\": %.6f, \
       \"indep_ci95\": %.6f, \"pairs\": %d, \"verdict\": \"%s\", \
       \"paired_excludes_zero\": %b, \"indep_excludes_zero\": %b }"
      rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name rk.Sweep.rk_rank
      rk.Sweep.rk.Sweep.lr_result.Sample.cpi cmp.Paired.delta_mean
      (planted_pct rk) cmp.Paired.delta_ci95 cmp.Paired.indep_ci95
      cmp.Paired.n
      (Paired.verdict_to_string rk.Sweep.rk_verdict)
      (Paired.paired_excludes_zero cmp)
      (Paired.indep_excludes_zero cmp)
  in
  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"sweep\",\n\
    \  \"scale\": %d,\n\
    \  \"spec\": \"%s\",\n\
    \  \"schedule\": { \"ff_insns\": %d, \"warmup_insns\": %d, \
     \"measure_insns\": %d },\n\
    \  \"intervals\": %d,\n\
    \  \"base_cpi\": %.6f,\n\
    \  \"legs\": [\n    %s\n  ],\n\
    \  \"better_leg_ranked_first\": %b,\n\
    \  \"paired_cis_exclude_zero\": %b,\n\
    \  \"independent_cis_include_zero\": %b,\n\
    \  \"cached_rerun_byte_identical\": %b,\n\
    \  \"pass\": %b\n\
     }\n"
    scale spec_text schedule.Sample.ff_insns schedule.Sample.warmup_insns
    schedule.Sample.measure_insns intervals base_cpi
    (String.concat ",\n    " (List.map leg_json legs))
    better_first paired_resolve indep_blind
    (rendered_identical && cached_rerun)
    pass;
  close_out oc;
  Printf.printf "wrote BENCH_sweep.json\n%!";
  if not pass then exit 1

(* ---------------------------------------------------------------- *)
(* Self-healing fleet under injected faults                          *)
(* ---------------------------------------------------------------- *)

(* The robustness budget: (a) a worker killed mid-delivery must cost
   only re-queued work — the merged result stays bit-identical to a
   clean fleet run; (b) a poisoned interval record must be quarantined
   after the bounded retry budget and the run must terminate with an
   explicitly degraded result, never a hang or a silently-wrong report.
   Chaos schedules are armed in forked worker processes only, so the
   server's own store writes stay clean. Writes BENCH_chaos.json. *)
let exp_chaos () =
  banner "Self-healing fleet (chaos harness)";
  let module Chaos = Ptl_chaos.Chaos in
  let make_domain () =
    let g = G.create () in
    G.li g G.rbp Machine.heap_base;
    G.lii g G.rcx (150_000 * scale);
    G.label g "top";
    G.ld g G.rax ~base:G.rbp ();
    G.addi g G.rax 1;
    G.st g ~base:G.rbp G.rax ();
    G.imuli g G.rbx 1103515245;
    G.addi g G.rbx 12345;
    G.dec g G.rcx;
    G.jne g "top";
    G.ins g Insn.Hlt;
    let m = Machine.create (G.assemble g) in
    Domain.create ~core:"ooo" ~config:Config.k8_ptlsim m.Machine.env
      m.Machine.ctx
  in
  let schedule =
    { Sample.ff_insns = 60_000; warmup_insns = 5_000; measure_insns = 10_000 }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let dir = Filename.temp_file "optlsim_chaos" "" in
  Sys.remove dir;
  let sock = dir ^ ".sock" in
  let cr, t_capture =
    time (fun () ->
        Sample.run_capture ~max_cycles:2_000_000_000 ~schedule (make_domain ()))
  in
  let store =
    match
      Store.create ~dir ~workload:"bench-chaos" ~core:"ooo" ~schedule
        ~placement:"fixed" cr ~config:Config.k8_ptlsim
    with
    | Ok s -> s
    | Error e -> failwith (Store.error_to_string e)
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  Printf.printf "capture: %.2f s, %d interval(s)\n%!" t_capture intervals;
  let clear_result_cache () =
    Array.iter
      (fun f ->
        if String.length f >= 7 && String.sub f 0 7 = "result-" then
          Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  in
  let spawn_worker ?chaos () =
    match Unix.fork () with
    | 0 ->
      (match chaos with
      | Some spec -> (
        match Chaos.parse spec with
        | Ok rules -> Chaos.arm rules
        | Error e ->
          prerr_endline ("chaos worker: " ^ e);
          Unix._exit 1)
      | None -> ());
      (match Fleet.work ~retries:150 ~connect:sock () with
      | Ok _ -> Unix._exit 0
      | Error msg ->
        prerr_endline ("fleet worker: " ^ msg);
        Unix._exit 1
      | exception Chaos.Killed point ->
        (* the injected process death — the crash under test *)
        prerr_endline ("chaos worker killed at " ^ point);
        Unix._exit 0)
    | pid -> pid
  in
  let serve ?(max_failures = 3) () =
    Fleet.serve ~lease_timeout:60.0 ~max_failures ~socket:sock store
  in
  (* clean fleet baseline: one worker process, empty cache *)
  let sv_clean, t_clean =
    time (fun () ->
        let pid = spawn_worker () in
        let sv = serve () in
        ignore (Unix.waitpid [] pid);
        sv)
  in
  Printf.printf "clean fleet run:   %.2f s (%d replayed)\n%!" t_clean
    sv_clean.Fleet.sv_replayed;
  (* chaos run: one worker dies delivering its second result; a clean
     worker drains what the victim dropped *)
  clear_result_cache ();
  let sv_chaos, t_chaos =
    time (fun () ->
        let victim = spawn_worker ~chaos:"kill@work.done:2" () in
        let drain = spawn_worker () in
        let sv = serve () in
        ignore (Unix.waitpid [] victim);
        ignore (Unix.waitpid [] drain);
        sv)
  in
  let identical_when_clean = sv_chaos.Fleet.sv_result = sv_clean.Fleet.sv_result in
  let requeued = sv_chaos.Fleet.sv_requeued in
  let wasted_fraction = float_of_int requeued /. float_of_int intervals in
  let recovery_latency = max 0.0 (t_chaos -. t_clean) in
  Printf.printf
    "chaos fleet run:   %.2f s (%d re-queued, +%.2f s vs clean) — merged \
     report %s\n%!"
    t_chaos requeued recovery_latency
    (if identical_when_clean then "BIT-IDENTICAL" else "DIFFERS (bug!)");
  (* poison run: corrupt one interval record (first payload byte), the
     fleet must quarantine exactly it within max_failures attempts *)
  clear_result_cache ();
  let poison = min 1 (intervals - 1) in
  let path = Store.interval_path store poison in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 23 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\000') 0 1);
  Unix.close fd;
  let max_failures = 2 in
  let sv_poison, t_poison =
    time (fun () ->
        let pid = spawn_worker () in
        let sv = serve ~max_failures () in
        ignore (Unix.waitpid [] pid);
        sv)
  in
  let poison_quarantined =
    List.map fst sv_poison.Fleet.sv_quarantined = [ poison ]
  in
  Printf.printf "poison fleet run:  %.2f s — quarantined %s (expected [%d])\n%!"
    t_poison
    (String.concat ","
       (List.map (fun (i, _) -> string_of_int i) sv_poison.Fleet.sv_quarantined))
    poison;
  Sample.report_degraded stdout ~count:intervals
    ~quarantined:sv_poison.Fleet.sv_quarantined sv_poison.Fleet.sv_result;
  let pass = identical_when_clean && poison_quarantined in
  Printf.printf "budget (identical under kill, poison quarantined): %s\n%!"
    (if pass then "PASS" else "FAIL");
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"chaos\",\n\
    \  \"scale\": %d,\n\
    \  \"intervals\": %d,\n\
    \  \"capture_seconds\": %.3f,\n\
    \  \"clean_seconds\": %.3f,\n\
    \  \"chaos_seconds\": %.3f,\n\
    \  \"poison_seconds\": %.3f,\n\
    \  \"requeued\": %d,\n\
    \  \"wasted_fraction\": %.4f,\n\
    \  \"recovery_latency_s\": %.3f,\n\
    \  \"identical_when_clean\": %b,\n\
    \  \"poison_quarantined\": %b,\n\
    \  \"quarantine_retry_budget\": %d,\n\
    \  \"pass\": %b\n\
     }\n"
    scale intervals t_capture t_clean t_chaos t_poison requeued
    wasted_fraction recovery_latency identical_when_clean poison_quarantined
    max_failures pass;
  close_out oc;
  Printf.printf "wrote BENCH_chaos.json\n%!";
  if not pass then exit 1

(* ---------------------------------------------------------------- *)

let experiments =
  [
    ("table1", exp_table1);
    ("fig2", exp_fig2);
    ("fig3", exp_fig3);
    ("guard-overhead", exp_guard_overhead);
    ("variance", exp_variance);
    ("ablate-bbcache", exp_ablate_bbcache);
    ("ablate-hoist", exp_ablate_hoist);
    ("ablate-banks", exp_ablate_banks);
    ("ablate-tlb", exp_ablate_tlb);
    ("vm", exp_vm);
    ("smt", exp_smt);
    ("coherence", exp_coherence);
    ("cosim", exp_cosim);
    ("sampling", exp_sampling);
    ("sample", exp_sample);
    ("parallel-sample", exp_parallel_sample);
    ("fleet", exp_fleet);
    ("sweep", exp_sweep);
    ("chaos", exp_chaos);
    ("fuzz", exp_fuzz);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen =
    match args with
    | [] -> experiments
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown experiment %s (have: %s)\n" n
              (String.concat ", " (List.map fst experiments));
            None)
        names
  in
  List.iter (fun (_, f) -> f ()) chosen;
  Printf.printf "\nall requested experiments completed.\n%!"
