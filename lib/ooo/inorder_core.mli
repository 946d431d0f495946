(** A scalar in-order timed core: functional execution through
    {!Ptl_arch.Seqcore} with a cycle cost per event (one base cycle per
    uop, blocking cache and TLB accesses, a fixed mispredict penalty).
    It is the [inorder] registry model and a baseline for the
    out-of-order core. The record is transparent for the guard's
    TLB, hierarchy and watchdog checks. *)

module Seqcore := Ptl_arch.Seqcore
module Context := Ptl_arch.Context
module Env := Ptl_arch.Env
module Hierarchy := Ptl_mem.Hierarchy
module Tlb := Ptl_mem.Tlb
module Pwc := Ptl_mem.Pwc
module Stats := Ptl_stats.Statstree

(** The core state. *)
type t = {
  env : Env.t;
  ctx : Context.t;
  seq : Seqcore.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  monitor : Ptl_arch.Monitor.t;  (* charges the current block's cost *)
  mutable tlb_gen_seen : int;
  (* no-commit watchdog (same contract as the OOO core's): a running
     context that retires nothing for [watchdog_cycles] is a core bug *)
  watchdog_cycles : int;
  mutable wd_last_insns : int;
  mutable wd_last_progress : int;
  c_cycles : Stats.counter;
  c_kernel : Stats.counter;
  c_user : Stats.counter;
  c_idle : Stats.counter;
}

(** A core for [ctx] on [env]; [prefix] (default ["inorder"]) namespaces
    its statistics, and [uarch] shares caches, TLBs and predictor with
    other models. *)
val create :
  ?prefix:string ->
  ?uarch:Uarch.t -> Config.t -> Env.t -> Context.t -> t

(** Execute one basic block and advance simulated time by its cost.
    Returns the seqcore status. *)
val step_block : t -> Seqcore.status

(** Instructions committed so far. *)
val insns : t -> int
