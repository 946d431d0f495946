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
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Seqcore = Ptl_arch.Seqcore
module Kernel = Ptl_kernel.Kernel
module Domain = Ptl_hyper.Domain
module Ptlmon = Ptl_hyper.Ptlmon
module RB = Ptl_workloads.Rsync_bench
module FS = Ptl_workloads.Fileset
module G = Ptl_workloads.Gasm
module Tbl = Ptl_util.Tablefmt
module Insn = Ptl_isa.Insn
module Coherence = Ptl_mem.Coherence
module Tlb = Ptl_mem.Tlb
module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Fleet = Ptl_fleet.Fleet
module Sweep = Ptl_sweep.Sweep
module Paired = Ptl_stats.Paired
module Chaos = Ptl_chaos.Chaos
module Microbench = Ptl_workloads.Microbench

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
    let avg l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
    Printf.printf
      "\noverall: user %.0f%%, kernel %.0f%%, idle %.0f%% (paper: kernel 15%%, idle 27%%)\n%!"
      (100. *. avg user) (100. *. avg kern) (100. *. avg idle)

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
  let base = Float.min (run_once ~interval:None) (run_once ~interval:None) in
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

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

(* Run machine [m] on one out-of-order core under [config] until it
   halts or [max_cycles] pass: (cycles, committed insns, stat reader). *)
let run_ooo ~max_cycles config m =
  let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
  let cycles = Ooo.run core ~max_cycles in
  (cycles, Ooo.insns core, Stats.get m.Machine.env.Env.stats)

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
    let cycles, _, stat =
      run_ooo ~max_cycles:50_000_000
        { Config.k8_ptlsim with Config.load_hoisting = hoist }
        (store_load_machine ())
    in
    (cycles, stat "ooo.issue.replays", stat "ooo.lsq.hoist_violations")
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
    let cycles, insns, stat =
      run_ooo ~max_cycles:50_000_000
        { Config.k8_ptlsim with Config.enforce_banking = banking }
        (Machine.create img)
    in
    (cycles, stat "ooo.issue.bank_conflicts", insns)
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
    let cycles, _, stat =
      run_ooo ~max_cycles:100_000_000 { Config.k8_ptlsim with Config.dtlb }
        (Machine.create ~heap_pages:256 img)
    in
    (cycles, stat "ooo.dcache.dtlb_misses", stat "ooo.dcache.dtlb_accesses")
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
  let slots = 1 lsl 16 (* 512 KB table: 128 pages vs 32 L1-DTLB entries *) in
  let steps = 60_000 * scale in
  let heap_pages = slots * 8 / 4096 in
  let run_bare ?(hugepages = false) () =
    let cycles, insns, stat =
      run_ooo ~max_cycles:400_000_000
        { Config.k8_ptlsim with Config.tlb_hugepages = hugepages }
        (Machine.create ~heap_pages ~huge_heap:hugepages
           (Microbench.gups ~slots ~steps ()))
    in
    (cycles, max 1 insns, stat "ooo.dcache.dtlb_misses")
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
    let cycles, _, stat =
      run_ooo ~max_cycles:400_000_000
        { Config.k8_ptlsim with Config.pwc_entries = pwc } m
    in
    (cycles, stat "ooo.dcache.dtlb_misses")
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
    let kernel_config =
      {
        Kernel.default_config with
        Kernel.demand_paging = true;
        vm_watermark = watermark;
        vm_batch = 4;
      }
    in
    let d, k =
      Ptlmon.launch
        { Ptlmon.default_spec with
          Ptlmon.programs = [ ("init", img) ]; kernel_config }
    in
    Domain.submit d "-run";
    ignore (Domain.run ~max_cycles:800_000_000 d);
    if not (Kernel.is_shutdown k) then
      failwith "vm bench: demand-paged gups did not run to completion";
    let st = d.Domain.env.Env.stats in
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
  let reclaimed = evictions > 0 && shootdowns > 0 in
  let pass = huge_wins && pwc_wins && reclaimed in
  Printf.printf
    "budget (2M DTLB MPKI < 4K, PWC shortens walks, reclaim exercised): %s\n%!"
    (if pass then "PASS" else "FAIL");
  let pages cycles insns misses =
    Record.(
      Obj [ ("cycles", Int cycles); ("insns", Int insns);
            ("cpi", Float (cpi cycles insns)); ("dtlb_misses", Int misses);
            ("dtlb_mpki", Float (mpki misses insns)) ])
  in
  Record.(
    write "vm"
      [ ("scale", Int scale);
        ("gups", Obj [ ("slots", Int slots); ("steps", Int steps) ]);
        ("pages_4k", pages c4 i4 m4); ("pages_2m", pages c2 i2 m2);
        ( "pwc",
          Obj [ ("entries", Int pwc_entries);
                ("workload", Str "pointer_chase"); ("cycles_off", Int cw0);
                ("cycles_on", Int cw1); ("dtlb_misses", Int mw1);
                ("walk_cycles_saved", Int walk_saved);
                ("saved_per_miss", Float saved_per_miss) ] );
        ( "demand",
          Obj [ ("faults", Int faults_lazy);
                ("thrash_faults", Int faults_thrash);
                ("evictions", Int evictions); ("shootdowns", Int shootdowns);
                ("cycles_unconstrained", Int cyc_lazy);
                ("cycles_watermark16", Int cyc_thrash);
                ("cycles_per_shootdown", Float shootdown_cost) ] );
        ( "budget",
          Obj [ ("hugepages_reduce_dtlb_mpki", Bool huge_wins);
                ("pwc_shortens_walks", Bool pwc_wins);
                ("reclaim_exercised", Bool reclaimed) ] );
        ("pass", Bool pass) ]);
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
(* Sampled simulation                                                *)
(* ---------------------------------------------------------------- *)

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
    fst
      (Ptlmon.launch
         { Ptlmon.default_spec with Ptlmon.programs = [ ("init", G.assemble g) ] })
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

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [image] on a fresh bare machine: checkpoints, and so stores and
   fleets, need one (no minios kernel). *)
let bare_domain ?(config = Config.k8_ptlsim) image =
  let m = Machine.create image in
  Domain.create ~core:"ooo" ~config m.Machine.env m.Machine.ctx

(* One capture pass of [domain], spilled into a store in a fresh
   directory under the temp dir that is removed, with everything in it,
   when the bench exits: (a socket path beside the store, capture, its
   seconds, store). *)
let capture_store ?(placement = Sample.Fixed) ~workload ~config ~schedule domain =
  let scratch = Filename.temp_dir ("optlsim_" ^ workload) "" in
  at_exit (fun () -> if Sys.file_exists scratch then remove_tree scratch);
  let cr, t_capture =
    time (fun () ->
        Sample.run_capture ~placement ~max_cycles:2_000_000_000 ~schedule domain)
  in
  match
    Store.create ~dir:(Filename.concat scratch "store")
      ~workload:("bench-" ^ workload) ~core:"ooo" ~schedule
      ~placement:(Sample.placement_to_string placement) cr ~config
  with
  | Ok store -> (Filename.concat scratch "sock", cr, t_capture, store)
  | Error e -> failwith (Store.error_to_string e)

let clear_result_cache store =
  let dir = Store.dir store in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"result-" f then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

(* Fork one fleet worker process on [sock], with the [chaos] schedule
   armed in it alone. It leaves through _exit, so neither the bench's
   exit handlers nor its remaining experiments run in the child. *)
let spawn_worker ?chaos sock =
  match Unix.fork () with
  | 0 ->
    let code =
      match
        Option.iter
          (fun spec ->
            match Chaos.parse spec with
            | Ok rules -> Chaos.arm rules
            | Error e -> failwith ("chaos worker: " ^ e))
          chaos;
        Fleet.work ~retries:150 ~connect:sock ()
      with
      | Ok _ -> 0
      | Error msg ->
        prerr_endline ("fleet worker: " ^ msg);
        1
      | exception Chaos.Killed point ->
        (* the injected process death — the crash under test *)
        prerr_endline ("chaos worker killed at " ^ point);
        0
      | exception e ->
        prerr_endline ("fleet worker: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> pid

(* Serve [store] on [sock] to one forked worker per entry of [workers]
   (each its chaos schedule, if any) and reap them. *)
let serve_fleet ?max_failures ~sock store workers =
  let pids = List.map (fun chaos -> spawn_worker ?chaos sock) workers in
  let sv = Fleet.serve ~lease_timeout:60.0 ?max_failures ~socket:sock store in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  sv

let schedule_json s =
  Record.(
    Obj [ ("ff_insns", Int s.Sample.ff_insns);
          ("warmup_insns", Int s.Sample.warmup_insns);
          ("measure_insns", Int s.Sample.measure_insns) ])

(* The lib/sample supervisor on a long homogeneous loop mixing memory,
   ALU and multiply work: wall-clock speedup vs full detail, and
   aggregate-CPI error of the estimate. On this steady-state shape
   periodic sampling is exact up to boundary effects (phased workloads
   need periods incommensurate with the phase length; see
   --sample-period). Writes BENCH_sample.json. *)
let exp_sample () =
  banner "Sampled simulation engine (lib/sample): speedup and CPI error";
  let make_domain () =
    let image = Microbench.compute ~iters:(1_200_000 * scale) ~bare:false in
    fst
      (Ptlmon.launch
         { Ptlmon.default_spec with Ptlmon.programs = [ ("init", image) ] })
  in
  (* full-detail reference *)
  let d_full = make_domain () in
  Domain.submit d_full "-core ooo -run";
  let (), t_full =
    time (fun () -> ignore (Domain.run ~max_cycles:2_000_000_000 d_full))
  in
  let full_insns = Domain.insns d_full in
  let full_cycles = Stats.get d_full.Domain.env.Env.stats "domain.cycles" in
  let full_cpi = float_of_int full_cycles /. float_of_int (max 1 full_insns) in
  (* sampled run: ~1.2% of instructions in detail *)
  let schedule =
    { Sample.ff_insns = 2_470_000; warmup_insns = 10_000; measure_insns = 20_000 }
  in
  let r, t_samp =
    time (fun () ->
        Sample.run ~max_cycles:2_000_000_000 ~schedule (make_domain ()))
  in
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
  Record.(
    write "sample"
      [ ("scale", Int scale);
        ( "full",
          Obj [ ("insns", Int full_insns); ("cycles", Int full_cycles);
                ("cpi", Float full_cpi); ("seconds", Float t_full) ] );
        ( "sampled",
          Obj [ ("insns", Int r.Sample.total_insns);
                ("measured_insns", Int r.Sample.measured_insns);
                ("intervals", Int (List.length r.Sample.intervals));
                ("cpi", Float r.Sample.cpi);
                ("cpi_mean", Float r.Sample.cpi_mean);
                ("cpi_ci95", Float r.Sample.cpi_ci95);
                ("est_cycles", Float r.Sample.est_cycles);
                ("seconds", Float t_samp) ] );
        ("speedup", Float speedup); ("cpi_error_pct", Float err_pct);
        ( "budget",
          Obj [ ("min_speedup", Float 10.0); ("max_cpi_error_pct", Float 5.0) ] );
        ("pass", Bool pass) ])

(* The replay referees in one place. One capture pass spills a durable
   interval store, which is then replayed four ways: a 2-process fleet
   over the unix-socket job server, Fleet.replay with one job and with
   four (the result cache emptied before each), and a fully cached
   rerun. The four merged results must be bit-identical and the delta
   checkpoints smaller than full images, or the experiment exits 1. The
   speedup budgets (fleet >=1.2x vs one job, four jobs >=1.5x vs one)
   apply only when the host has the cores (>=2, >=4), and are printed
   and recorded, not enforced. Writes BENCH_fleet.json. *)
let exp_fleet () =
  banner "Replay equivalence: fleet == jobs=1 == jobs=4 == cached";
  let schedule =
    { Sample.ff_insns = 200_000; warmup_insns = 10_000; measure_insns = 30_000 }
  in
  let placement = Sample.Rand_offset 7 in
  let host_cores = Stdlib.Domain.recommended_domain_count () in
  Printf.printf "host cores (recommended_domain_count): %d\n%!" host_cores;
  let sock, cr, t_capture, store =
    capture_store ~placement ~workload:"fleet" ~config:Config.k8_ptlsim
      ~schedule
      (bare_domain (Microbench.compute ~iters:(400_000 * scale) ~bare:true))
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  let shrink =
    float_of_int cr.Sample.cr_full_bytes
    /. float_of_int (max 1 cr.Sample.cr_delta_bytes)
  in
  Printf.printf
    "capture: %.2f s, %d interval(s), deltas %d bytes vs full %d bytes \
     (%.1fx smaller)\n%!"
    t_capture intervals cr.Sample.cr_delta_bytes cr.Sample.cr_full_bytes shrink;
  (* the fleet first, while the cache is empty and before jobs=4 spawns
     domains, after which this process can no longer fork *)
  let workers = 2 in
  let sv, t_fleet =
    time (fun () -> serve_fleet ~sock store (List.init workers (fun _ -> None)))
  in
  Printf.printf "fleet, %d worker processes: %.2f s (%d replayed, %d \
                 re-queued)\n%!"
    workers t_fleet sv.Fleet.sv_replayed sv.Fleet.sv_requeued;
  let replay jobs =
    time (fun () ->
        match Fleet.replay ~jobs store with
        | Ok rp -> rp
        | Error e -> failwith (Store.error_to_string e))
  in
  clear_result_cache store;
  let rp1, t_j1 = replay 1 in
  Printf.printf "replay, jobs=1:           %.2f s\n%!" t_j1;
  clear_result_cache store;
  let rp4, t_j4 = replay 4 in
  Printf.printf "replay, jobs=4:           %.2f s\n%!" t_j4;
  let rpc, t_cached = replay 1 in
  Printf.printf "cached re-run:            %.2f s (%d/%d from cache)\n%!"
    t_cached rpc.Fleet.rp_cached intervals;
  let r = sv.Fleet.sv_result in
  Sample.report stdout r;
  let identical =
    List.for_all (fun rp -> rp.Fleet.rp_result = r) [ rp1; rp4; rpc ]
  in
  let delta_shrinks = cr.Sample.cr_delta_bytes < cr.Sample.cr_full_bytes in
  let speedup_fleet = t_j1 /. t_fleet and speedup_j4 = t_j1 /. t_j4 in
  Printf.printf
    "fleet vs jobs=1: %.2fx   jobs=4 vs jobs=1: %.2fx   merged reports: %s\n%!"
    speedup_fleet speedup_j4
    (if identical then "BIT-IDENTICAL" else "DIFFER (bug!)");
  let fleet_applicable = host_cores >= 2 and jobs4_applicable = host_cores >= 4 in
  let pass =
    identical && delta_shrinks
    && ((not fleet_applicable) || speedup_fleet >= 1.2)
    && ((not jobs4_applicable) || speedup_j4 >= 1.5)
  in
  let budget what applicable =
    if applicable then " and " ^ what
    else Printf.sprintf "; %s waived, host has %d core(s)" what host_cores
  in
  Printf.printf "budget (bit-identical, deltas < full%s%s): %s\n%!"
    (budget "fleet >=1.2x" fleet_applicable)
    (budget "jobs=4 >=1.5x" jobs4_applicable)
    (if pass then "PASS" else "FAIL");
  Record.(
    write "fleet"
      [ ("scale", Int scale); ("host_cores", Int host_cores);
        ("workers", Int workers);
        ("placement", Str (Sample.placement_to_string placement));
        ("schedule", schedule_json schedule); ("intervals", Int intervals);
        ("capture_seconds", Float t_capture);
        ("capture_delta_bytes", Int cr.Sample.cr_delta_bytes);
        ("capture_image_bytes", Int cr.Sample.cr_full_bytes);
        ("delta_shrink_factor", Float shrink); ("serial_seconds", Float t_j1);
        ("jobs4_seconds", Float t_j4); ("fleet_seconds", Float t_fleet);
        ("cached_seconds", Float t_cached);
        ("speedup_fleet_vs_serial", Float speedup_fleet);
        ("speedup_jobs4_vs_jobs1", Float speedup_j4);
        ("replayed_by_fleet", Int sv.Fleet.sv_replayed);
        ("leases_requeued", Int sv.Fleet.sv_requeued);
        ("reports_bit_identical", Bool identical);
        ( "sampled",
          Obj [ ("cpi", Float r.Sample.cpi);
                ("cpi_mean", Float r.Sample.cpi_mean);
                ("cpi_ci95", Float r.Sample.cpi_ci95);
                ("est_cycles", Float r.Sample.est_cycles) ] );
        ( "budget",
          Obj [ ("min_speedup", Float 1.2);
                ("speedup_applicable", Bool fleet_applicable);
                ("min_speedup_jobs4_vs_jobs1", Float 1.5);
                ("speedup_jobs4_applicable", Bool jobs4_applicable);
                ("deltas_smaller_than_full", Bool delta_shrinks) ] );
        ("pass", Bool pass) ]);
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
   Writes BENCH_sweep.json. *)
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
    bare_domain ~config:Config.tiny (G.assemble g)
  in
  let schedule =
    { Sample.ff_insns = 30_000; warmup_insns = 1_000; measure_insns = 2_000 }
  in
  let _, cr, _, store =
    capture_store ~placement:(Sample.Rand_offset 11) ~workload:"sweep"
      ~config:Config.tiny ~schedule (make_domain ())
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  Printf.printf "capture: %d interval(s)\n%!" intervals;
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
    Record.(
      Obj [ ("leg", Str rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name);
            ("rank", Int rk.Sweep.rk_rank);
            ("cpi", Float rk.Sweep.rk.Sweep.lr_result.Sample.cpi);
            ("delta_mean", Float cmp.Paired.delta_mean);
            ("delta_pct_of_base", Float (planted_pct rk));
            ("paired_ci95", Float cmp.Paired.delta_ci95);
            ("indep_ci95", Float cmp.Paired.indep_ci95);
            ("pairs", Int cmp.Paired.n);
            ("verdict", Str (Paired.verdict_to_string rk.Sweep.rk_verdict));
            ("paired_excludes_zero", Bool (Paired.paired_excludes_zero cmp));
            ("indep_excludes_zero", Bool (Paired.indep_excludes_zero cmp)) ])
  in
  Record.(
    write "sweep"
      [ ("scale", Int scale); ("spec", Str spec_text);
        ("schedule", schedule_json schedule); ("intervals", Int intervals);
        ("base_cpi", Float base_cpi); ("legs", List (List.map leg_json legs));
        ("better_leg_ranked_first", Bool better_first);
        ("paired_cis_exclude_zero", Bool paired_resolve);
        ("independent_cis_include_zero", Bool indep_blind);
        ("cached_rerun_byte_identical", Bool (rendered_identical && cached_rerun));
        ("pass", Bool pass) ]);
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
  let schedule =
    { Sample.ff_insns = 60_000; warmup_insns = 5_000; measure_insns = 10_000 }
  in
  let sock, cr, t_capture, store =
    capture_store ~workload:"chaos" ~config:Config.k8_ptlsim ~schedule
      (bare_domain (Microbench.compute ~iters:(150_000 * scale) ~bare:true))
  in
  let intervals = Array.length cr.Sample.cr_deltas in
  Printf.printf "capture: %.2f s, %d interval(s)\n%!" t_capture intervals;
  let fleet ?max_failures workers =
    time (fun () -> serve_fleet ?max_failures ~sock store workers)
  in
  (* clean fleet baseline: one worker process, empty cache *)
  let sv_clean, t_clean = fleet [ None ] in
  Printf.printf "clean fleet run:   %.2f s (%d replayed)\n%!" t_clean
    sv_clean.Fleet.sv_replayed;
  (* chaos run: one worker dies delivering its second result; a clean
     worker drains what the victim dropped *)
  clear_result_cache store;
  let sv_chaos, t_chaos = fleet [ Some "kill@work.done:2"; None ] in
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
  clear_result_cache store;
  let poison = min 1 (intervals - 1) in
  let fd = Unix.openfile (Store.interval_path store poison) [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 23 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\000') 0 1);
  Unix.close fd;
  let max_failures = 2 in
  let sv_poison, t_poison = fleet ~max_failures [ None ] in
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
  Record.(
    write "chaos"
      [ ("scale", Int scale); ("intervals", Int intervals);
        ("capture_seconds", Float t_capture); ("clean_seconds", Float t_clean);
        ("chaos_seconds", Float t_chaos); ("poison_seconds", Float t_poison);
        ("requeued", Int requeued); ("wasted_fraction", Float wasted_fraction);
        ("recovery_latency_s", Float recovery_latency);
        ("identical_when_clean", Bool identical_when_clean);
        ("poison_quarantined", Bool poison_quarantined);
        ("quarantine_retry_budget", Int max_failures); ("pass", Bool pass) ]);
  if not pass then exit 1

(* ---------------------------------------------------------------- *)

(* Experiments run in this order whatever order they are named in: once
   fleet's jobs=4 replay has spawned domains, OCaml can no longer fork,
   so the experiments that fork worker processes (chaos, and fleet
   itself first) come before it. *)
let experiments =
  [
    ("table1", exp_table1);
    ("fig2", exp_fig2);
    ("fig3", exp_fig3);
    ("guard-overhead", exp_guard_overhead);
    ("ablate-bbcache", exp_ablate_bbcache);
    ("ablate-hoist", exp_ablate_hoist);
    ("ablate-banks", exp_ablate_banks);
    ("ablate-tlb", exp_ablate_tlb);
    ("vm", exp_vm);
    ("smt", exp_smt);
    ("coherence", exp_coherence);
    ("sampling", exp_sampling);
    ("sample", exp_sample);
    ("sweep", exp_sweep);
    ("chaos", exp_chaos);
    ("fleet", exp_fleet);
  ]

(* Every name is checked before anything runs: a misspelt or retired
   experiment is a usage error, not a silently shorter run. *)
let () =
  let names = List.tl (Array.to_list Sys.argv) in
  match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
  | [] ->
    List.iter
      (fun (n, f) -> if names = [] || List.mem n names then f ())
      experiments;
    Printf.printf "\nall requested experiments completed.\n%!"
  | unknown ->
    Printf.eprintf "bench: unknown experiment %s (valid: %s)\n%!"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2
