(** optlsim — a cycle-accurate, full-system x86-64-style microarchitectural
    simulator in OCaml, reproducing PTLsim (Yourst, ISPASS 2007).

    This umbrella module re-exports the public API by subsystem. The usual
    entry points:

    - assemble a guest program: {!Asm} / {!Gasm} / {!Insn}
    - run it on a bare machine: {!Machine}, then {!Seqcore} (functional),
      {!Ooo_core} (cycle-accurate out-of-order), {!Inorder_core}, or any
      model from {!Registry}
    - boot a full system: {!Kernel} (minios) under {!Ptlmon}/{!Domain},
      drive mode switches with {!Ptlcall} command lists
    - measure: {!Statstree} counters, {!Timelapse} snapshots
    - reproduce the paper: {!Rsync_bench}, and [bench/main.exe]

    See README.md for a tour and DESIGN.md for the system inventory. *)

(* utilities *)
module W64 = Ptl_util.W64
module Rng = Ptl_util.Rng
module Ring = Ptl_util.Ring
module Bitops = Ptl_util.Bitops
module Tablefmt = Ptl_util.Tablefmt
module Crc32 = Ptl_util.Crc32

(* statistics (PTLstats) *)
module Statstree = Ptl_stats.Statstree
module Timelapse = Ptl_stats.Timelapse

(* guest ISA *)
module Regs = Ptl_isa.Regs
module Flags = Ptl_isa.Flags
module Insn = Ptl_isa.Insn
module Encode = Ptl_isa.Encode
module Decode = Ptl_isa.Decode
module Asm = Ptl_isa.Asm
module Disasm = Ptl_isa.Disasm

(* memory system *)
module Phys_mem = Ptl_mem.Phys_mem
module Pagetable = Ptl_mem.Pagetable
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Cache = Ptl_mem.Cache
module Hierarchy = Ptl_mem.Hierarchy
module Coherence = Ptl_mem.Coherence

(* uop layer *)
module Uop = Ptl_uop.Uop
module Exec = Ptl_uop.Exec
module Microcode = Ptl_uop.Microcode
module Bbcache = Ptl_uop.Bbcache

(* branch prediction *)
module Predictor = Ptl_bpred.Predictor

(* architectural layer *)
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Fault = Ptl_arch.Fault
module Assists = Ptl_arch.Assists
module Vmem = Ptl_arch.Vmem
module Seqcore = Ptl_arch.Seqcore
module Machine = Ptl_arch.Machine

(* core models *)
module Config = Ptl_ooo.Config
module Ooo_core = Ptl_ooo.Ooo_core
module Inorder_core = Ptl_ooo.Inorder_core
module Multicore = Ptl_ooo.Multicore
module Registry = Ptl_ooo.Registry
module Uarch = Ptl_ooo.Uarch
module Physreg = Ptl_ooo.Physreg
module Interlock = Ptl_ooo.Interlock
module Sim_failure = Ptl_ooo.Sim_failure

(* the virtual-memory scenario layer *)
module Vm = Ptl_vm.Vm

(* the minios guest kernel *)
module Kernel = Ptl_kernel.Kernel
module Abi = Ptl_kernel.Abi
module Ramfs = Ptl_kernel.Ramfs
module Kbuild = Ptl_kernel.Kbuild

(* the hypervisor / monitor layer *)
module Domain = Ptl_hyper.Domain
module Ptlmon = Ptl_hyper.Ptlmon
module Ptlcall = Ptl_hyper.Ptlcall
module Checkpoint = Ptl_hyper.Checkpoint
module Cosim = Ptl_hyper.Cosim

(* guard rails: invariant registry + crash-containment supervisor *)
module Guard = Ptl_guard.Guard

(* seeded fault injection for robustness testing *)
module Chaos = Ptl_chaos.Chaos

(* sampled simulation (fast-forward + periodic detail) *)
module Sample = Ptl_sample.Sample

(* durable interval store + distributed sampling fleet *)
module Store = Ptl_store.Store
module Lease_queue = Ptl_fleet.Lease_queue
module Fleet = Ptl_fleet.Fleet

(* matched-pair design-space sweeps over an interval store *)
module Paired = Ptl_stats.Paired
module Sweep = Ptl_sweep.Sweep

(* differential fuzzing *)
module Fuzzgen = Ptl_fuzz.Fuzzgen
module Shrink = Ptl_fuzz.Shrink
module Fuzz = Ptl_fuzz.Harness

(* declarative ISA spec + conformance oracle *)
module Spec = Ptl_spec.Spec
module Oracle = Ptl_oracle.Oracle
module Cross = Ptl_oracle.Cross
module Conformance = Ptl_oracle.Conformance

(* workloads *)
module Gasm = Ptl_workloads.Gasm
module Microbench = Ptl_workloads.Microbench
module Crypto = Ptl_workloads.Crypto
module Lz = Ptl_workloads.Lz
module Fileset = Ptl_workloads.Fileset
module Rsync_progs = Ptl_workloads.Rsync_progs
module Rsync_bench = Ptl_workloads.Rsync_bench
