(* System-level integration tests: the complete rsync-over-ssh benchmark
   (functional correctness of the synchronization), SMT and multi-core
   execution, the in-order core, the registry, and domain-level ptlcall
   mode switching. *)

open Ptl_util
module RB = Ptl_workloads.Rsync_bench
module FS = Ptl_workloads.Fileset
module G = Ptl_workloads.Gasm
module Domain = Ptl_hyper.Domain
module Ptlmon = Ptl_hyper.Ptlmon
module Kernel = Ptl_kernel.Kernel
module Ramfs = Ptl_kernel.Ramfs
module Stats = Ptl_stats.Statstree
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Ooo = Ptl_ooo.Ooo_core
module Config = Ptl_ooo.Config
module Multicore = Ptl_ooo.Multicore
module Inorder = Ptl_ooo.Inorder_core
module Registry = Ptl_ooo.Registry
module Coherence = Ptl_mem.Coherence
module Insn = Ptl_isa.Insn
module Flags = Ptl_isa.Flags

let small_fileset = { FS.default with FS.nfiles = 5; max_size = 5_000; min_size = 1_500 }

let test_rsync_end_to_end () =
  let d, k = Ptlmon.launch (RB.spec ~fileset:small_fileset ~snapshot_interval:None ()) in
  Domain.submit d "-core seq -run";
  ignore (Domain.run ~max_cycles:2_000_000_000 d);
  Alcotest.(check bool) "domain shut down" true (Kernel.is_shutdown k);
  Alcotest.(check bool) "dst now equals src" true (RB.verify_sync k);
  (* all benchmark processes exited cleanly *)
  let exits = List.filter (fun (pid, _) -> pid > 1) (Kernel.exit_codes k) in
  Alcotest.(check int) "every benchmark process exited"
    (List.length k.Kernel.procs - 1) (List.length exits);
  List.iter
    (fun (pid, code) ->
      Alcotest.(check int) (Printf.sprintf "pid %d exit 0" pid) 0 code)
    exits;
  (* markers traced the phases in order *)
  let ms = List.map fst (Domain.markers d) in
  Alcotest.(check (list int)) "phases" [ 0; 1; 2; 3; 5; 6; 999 ] ms;
  let st = d.Domain.env.Env.stats in
  Alcotest.(check bool) "network packets" true (Stats.get st "kernel.packets" > 2);
  Alcotest.(check bool) "disk page-ins" true (Stats.get st "kernel.disk_reads" > 0);
  Alcotest.(check bool) "idle cycles (I/O waits)" true
    (Stats.get st "domain.cycles_in_mode.idle" > 0);
  Alcotest.(check bool) "kernel cycles" true
    (Stats.get st "domain.cycles_in_mode.kernel" > 0)

let test_rsync_deterministic () =
  (* two identical runs must produce identical counters (the paper's
     determinism claim, §2.1/§5: variance < 1% on real HW, 0 here) *)
  let run () =
    let d, _ = Ptlmon.launch (RB.spec ~fileset:small_fileset ~snapshot_interval:None ()) in
    Domain.submit d "-core seq -run";
    ignore (Domain.run ~max_cycles:2_000_000_000 d);
    ( Domain.insns d,
      Stats.get d.Domain.env.Env.stats "kernel.packets",
      Stats.get d.Domain.env.Env.stats "kernel.context_switches" )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical" true (a = b)

(* ---- SMT: two threads with real lock contention ---- *)

let lock_increment_image ~iters =
  (* Two SMT threads run this same code: spin on a lock at [heap], then
     increment a shared counter at [heap+8]. Thread id in rdi. *)
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.r12 iters;
  G.label g "again";
  (* acquire: lock xchg [rbp], 1 until old value was 0 *)
  G.label g "spin";
  G.lii g G.rax 1;
  G.ins g (Insn.Xchg (W64.B8, Insn.Mem (Insn.mem_bd G.rbp 0L), G.rax));
  G.cmpi g G.rax 0;
  G.jne g "spin";
  (* critical section *)
  G.ld g G.rcx ~base:G.rbp ~disp:8 ();
  G.addi g G.rcx 1;
  G.st g ~base:G.rbp ~disp:8 G.rcx ();
  (* release *)
  G.xor g G.rax G.rax;
  G.st g ~base:G.rbp G.rax ();
  G.dec g G.r12;
  G.jne g "again";
  G.ins g Insn.Hlt;
  G.assemble g

let test_smt_lock_contention () =
  let iters = 200 in
  let img = lock_increment_image ~iters in
  let m = Machine.create img in
  (* second thread: same address space, same code *)
  let ctx2 = Context.create ~vcpu_id:1 in
  Context.restore ctx2 ~snapshot:m.Machine.ctx;
  let config = { Config.tiny with Config.smt_threads = 2 } in
  let core = Ooo.create config m.Machine.env [| m.Machine.ctx; ctx2 |] in
  ignore (Ooo.run core ~max_cycles:10_000_000);
  Alcotest.(check bool) "both threads halted" true (Ooo.all_idle core);
  let counter = Machine.read_mem m ~vaddr:(Int64.add Machine.heap_base 8L) ~size:W64.B8 in
  Alcotest.(check int64) "no lost updates" (Int64.of_int (2 * iters)) counter;
  let st = m.Machine.env.Env.stats in
  Alcotest.(check bool) "interlock contention happened" true
    (Stats.get st "interlock.contended" > 0)

(* ---- multicore: producer/consumer across two cores with coherence ---- *)

let test_multicore_coherence () =
  let iters = 100 in
  let img = lock_increment_image ~iters in
  let m = Machine.create img in
  let ctx2 = Context.create ~vcpu_id:1 in
  Context.restore ctx2 ~snapshot:m.Machine.ctx;
  let mc =
    Multicore.create
      ~coherence:(Coherence.Moesi { transfer_latency = 20; invalidate_latency = 10 })
      Config.tiny m.Machine.env
      [| m.Machine.ctx; ctx2 |]
  in
  ignore (Multicore.run mc ~max_cycles:20_000_000);
  Alcotest.(check bool) "all cores idle" true (Multicore.all_idle mc);
  let counter = Machine.read_mem m ~vaddr:(Int64.add Machine.heap_base 8L) ~size:W64.B8 in
  Alcotest.(check int64) "coherent updates" (Int64.of_int (2 * iters)) counter;
  let st = m.Machine.env.Env.stats in
  Alcotest.(check bool) "cache-to-cache transfers" true
    (Stats.get st "coherence.transfers" > 0);
  Alcotest.(check bool) "invalidations" true (Stats.get st "coherence.invalidations" > 0)

let test_multicore_instant_vs_moesi () =
  (* MOESI must be slower than instant visibility on a ping-pong line *)
  let run coherence =
    let img = lock_increment_image ~iters:100 in
    let m = Machine.create img in
    let ctx2 = Context.create ~vcpu_id:1 in
    Context.restore ctx2 ~snapshot:m.Machine.ctx;
    let mc = Multicore.create ~coherence Config.tiny m.Machine.env [| m.Machine.ctx; ctx2 |] in
    Multicore.run mc ~max_cycles:30_000_000
  in
  let instant = run Coherence.Instant in
  let moesi = run (Coherence.Moesi { transfer_latency = 40; invalidate_latency = 20 }) in
  Alcotest.(check bool) "moesi costs cycles" true (moesi > instant)

(* ---- in-order core + registry ---- *)

let sum_image () =
  let g = G.create ~base:0x40_0000L () in
  G.lii g G.rax 0;
  G.lii g G.rcx 500;
  G.label g "top";
  G.add g G.rax G.rcx;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  G.assemble g

let test_inorder_core () =
  let m = Machine.create (sum_image ()) in
  let core = Inorder.create Config.tiny m.Machine.env m.Machine.ctx in
  let ctx = m.Machine.ctx in
  while ctx.Context.running || Context.interruptible ctx do
    ignore (Inorder.step_block core)
  done;
  Alcotest.(check int64) "sum" 125250L (Machine.gpr m G.rax);
  (* scalar: CPI >= 1 *)
  let cycles = Stats.get m.Machine.env.Env.stats "inorder.cycles" in
  Alcotest.(check bool) "cpi >= 1" true (cycles >= Inorder.insns core)

let test_registry_models () =
  let names = Registry.names () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "ooo"; "smt"; "inorder"; "seq" ];
  (* every model computes the same architectural result *)
  List.iter
    (fun name ->
      let m = Machine.create (sum_image ()) in
      let inst = Registry.build name Config.tiny m.Machine.env [| m.Machine.ctx |] in
      let budget = ref 5_000_000 in
      while (not (inst.Registry.idle ())) && !budget > 0 do
        inst.Registry.step ();
        decr budget
      done;
      Alcotest.(check int64) (name ^ " result") 125250L (Machine.gpr m G.rax))
    [ "ooo"; "inorder"; "seq" ];
  match Registry.build "nonsense" Config.tiny (Env.create ()) [||] with
  | exception Registry.Unknown_core _ -> ()
  | _ -> Alcotest.fail "expected Unknown_core"

(* ---- ooo vs inorder vs seq: the performance ordering must hold ---- *)

let test_core_performance_ordering () =
  (* independent adds: a superscalar OOO core must beat the scalar
     in-order core on IPC *)
  let g = G.create ~base:0x40_0000L () in
  G.lii g G.rcx 2000;
  G.label g "top";
  G.addi g G.rax 1;
  G.addi g G.rbx 2;
  G.addi g G.rdx 3;
  G.addi g G.rsi 4;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  let run_core name =
    let m = Machine.create img in
    let inst = Registry.build name Config.k8_ptlsim m.Machine.env [| m.Machine.ctx |] in
    let start = m.Machine.env.Env.cycle in
    let budget = ref 10_000_000 in
    while (not (inst.Registry.idle ())) && !budget > 0 do
      inst.Registry.step ();
      decr budget
    done;
    (m.Machine.env.Env.cycle - start, inst.Registry.insns ())
  in
  let ooo_cycles, ooo_insns = run_core "ooo" in
  let ino_cycles, ino_insns = run_core "inorder" in
  Alcotest.(check bool) "same work" true (abs (ooo_insns - ino_insns) < 10);
  let ooo_ipc = float_of_int ooo_insns /. float_of_int ooo_cycles in
  let ino_ipc = float_of_int ino_insns /. float_of_int ino_cycles in
  Alcotest.(check bool)
    (Printf.sprintf "ooo ipc (%.2f) > inorder ipc (%.2f)" ooo_ipc ino_ipc)
    true (ooo_ipc > ino_ipc)

(* ---- domain: ptlcall-driven native/sim switching ---- *)

let test_domain_mode_switching () =
  (* a bare-metal-style domain via kernel with a program that switches
     itself into simulation for a bounded span, like §2.3's trigger use *)
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  (* run the first loop natively, then simulate 2000 insns, then native *)
  G.ptlctl g "-core ooo -run -stopinsns 2k : -native";
  G.lii g G.rcx 5000;
  G.label g "top";
  G.addi g G.rax 1;
  G.dec g G.rcx;
  G.jne g "top";
  G.sys_marker g 999;
  G.sys_exit g 0;
  let env = Env.create () in
  let ctx = Context.create ~vcpu_id:0 in
  let k = Kernel.create env ctx in
  Kernel.register_program k ~name:"init" (G.assemble g);
  Kernel.boot k;
  let d = Domain.create ~kernel:k ~config:Config.tiny env ctx in
  ignore (Domain.run ~max_cycles:500_000_000 d);
  Alcotest.(check bool) "finished" true (Kernel.is_shutdown k);
  let st = env.Env.stats in
  (* both engines ran *)
  Alcotest.(check bool) "mode switches happened" true
    (Stats.get st "domain.mode_switches" >= 2);
  Alcotest.(check bool) "native insns" true (Stats.get st "domain.native_insns" > 0);
  Alcotest.(check bool) "simulated insns" true (Stats.get st "ooo.commit.insns" > 1000)

let suite =
  [
    Alcotest.test_case "rsync benchmark end-to-end" `Slow test_rsync_end_to_end;
    Alcotest.test_case "rsync deterministic" `Slow test_rsync_deterministic;
    Alcotest.test_case "smt lock contention" `Quick test_smt_lock_contention;
    Alcotest.test_case "multicore MOESI coherence" `Quick test_multicore_coherence;
    Alcotest.test_case "moesi slower than instant" `Quick test_multicore_instant_vs_moesi;
    Alcotest.test_case "inorder core" `Quick test_inorder_core;
    Alcotest.test_case "registry models" `Quick test_registry_models;
    Alcotest.test_case "ooo beats inorder ipc" `Quick test_core_performance_ordering;
    Alcotest.test_case "domain mode switching" `Quick test_domain_mode_switching;
  ]
