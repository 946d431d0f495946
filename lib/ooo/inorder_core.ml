(** A simple scalar in-order timed core.

    PTLsim ships an in-order sequential core "used for rapid testing and
    microcode debugging" (§2.2); this is its timed cousin: functional
    execution via {!Ptl_arch.Seqcore} with a cycle cost charged per event —
    one base cycle per uop, blocking cache/TLB accesses, and a fixed
    misprediction penalty against its own branch predictor. It serves as a
    baseline core model (the `inorder` registry entry) and anchors the
    ablation benches. *)

module Seqcore = Ptl_arch.Seqcore
module Monitor = Ptl_arch.Monitor
module Context = Ptl_arch.Context
module Vmem = Ptl_arch.Vmem
module Env = Ptl_arch.Env
module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace

type t = {
  env : Env.t;
  ctx : Context.t;
  seq : Seqcore.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  monitor : Monitor.t;  (* charges the current block's cost *)
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

let create ?(prefix = "inorder") ?uarch (config : Config.t) env ctx =
  let stats = env.Env.stats in
  let uarch =
    match uarch with
    | Some u -> u
    | None -> Uarch.create ~prefix config stats
  in
  (* registration order is dump order: these counters come before the
     functional core's, in the order recorded stats dumps expect *)
  let c_idle = Stats.counter stats (prefix ^ ".cycles_in_mode.idle") in
  let c_user = Stats.counter stats (prefix ^ ".cycles_in_mode.user") in
  let c_kernel = Stats.counter stats (prefix ^ ".cycles_in_mode.kernel") in
  let c_cycles = Stats.counter stats (prefix ^ ".cycles") in
  let seq = Seqcore.create ~prefix env ctx in
  let monitor =
    Monitor.timed ~env ~ctx ~hierarchy:uarch.Uarch.hierarchy ~dtlb:uarch.Uarch.dtlb
      ~itlb:uarch.Uarch.itlb ~pwc:uarch.Uarch.pwc
      ~hugepages:config.Config.tlb_hugepages ~bpred:uarch.Uarch.bpred ~c_kernel
      ~c_user
  in
  seq.Seqcore.monitor <- Some monitor;
  {
    env;
    ctx;
    seq;
    hierarchy = uarch.Uarch.hierarchy;
    dtlb = uarch.Uarch.dtlb;
    itlb = uarch.Uarch.itlb;
    pwc = uarch.Uarch.pwc;
    monitor;
    tlb_gen_seen = ctx.Context.tlb_generation;
    watchdog_cycles = config.Config.watchdog_cycles;
    wd_last_insns = 0;
    wd_last_progress = env.Env.cycle;
    c_cycles;
    c_kernel;
    c_user;
    c_idle;
  }

(** Execute one basic block and advance simulated time by its cost.
    Returns the seqcore status. *)
let step_block t =
  if !Trace.on then Trace.set_cycle t.env.Env.cycle;
  if t.ctx.Context.tlb_generation <> t.tlb_gen_seen then begin
    t.tlb_gen_seen <- t.ctx.Context.tlb_generation;
    Tlb.flush t.dtlb;
    Tlb.flush t.itlb;
    Option.iter Pwc.flush t.pwc
  end;
  ignore (Monitor.take_cycles t.monitor : int);
  let st = Seqcore.step_block t.seq in
  let cost = max 1 (Monitor.take_cycles t.monitor) in
  (match st with
  | Seqcore.Idle -> Stats.incr t.c_idle
  | Seqcore.Executed _ | Seqcore.Interrupted -> ());
  t.env.Env.cycle <- t.env.Env.cycle + cost;
  Stats.add t.c_cycles cost;
  (* Watchdog: progress is committed instructions advancing, an interrupt
     being delivered, or a legitimately idle VCPU. A running context that
     keeps burning cycles without retiring is a simulator bug. *)
  let insns_now = Seqcore.insns t.seq in
  let progressed =
    insns_now > t.wd_last_insns
    || match st with Seqcore.Interrupted | Seqcore.Idle -> true | Seqcore.Executed _ -> false
  in
  if progressed then begin
    t.wd_last_insns <- insns_now;
    t.wd_last_progress <- t.env.Env.cycle
  end
  else if t.env.Env.cycle - t.wd_last_progress > t.watchdog_cycles then
    Sim_failure.fail ~stats:t.env.Env.stats ~subsystem:"inorder.watchdog"
      ~kind:Sim_failure.Lockup ~cycle:t.env.Env.cycle ~rip:t.ctx.Context.rip
      (Printf.sprintf "no commit since cycle %d (insns=%d)" t.wd_last_progress
         insns_now);
  st

let insns t = Seqcore.insns t.seq
