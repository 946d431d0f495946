(** A simple scalar in-order timed core.

    PTLsim ships an in-order sequential core "used for rapid testing and
    microcode debugging" (§2.2); this is its timed cousin: functional
    execution via {!Ptl_arch.Seqcore} with a cycle cost charged per event —
    one base cycle per uop, blocking cache/TLB accesses, and a fixed
    misprediction penalty against its own branch predictor. It serves as a
    baseline core model (the `inorder` registry entry) and anchors the
    ablation benches. *)

module Seqcore = Ptl_arch.Seqcore
module Context = Ptl_arch.Context
module Vmem = Ptl_arch.Vmem
module Env = Ptl_arch.Env
module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Predictor = Ptl_bpred.Predictor
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
  hugepages : bool;
  bpred : Predictor.t;
  mutable pending_cycles : int;  (* cost accumulated by the current block *)
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
  let t =
    {
      env;
      ctx;
      seq = Seqcore.create ~prefix env ctx;
      hierarchy = uarch.Uarch.hierarchy;
      dtlb = uarch.Uarch.dtlb;
      itlb = uarch.Uarch.itlb;
      pwc = uarch.Uarch.pwc;
      hugepages = config.Config.tlb_hugepages;
      bpred = uarch.Uarch.bpred;
      pending_cycles = 0;
      tlb_gen_seen = ctx.Context.tlb_generation;
      watchdog_cycles = config.Config.watchdog_cycles;
      wd_last_insns = 0;
      wd_last_progress = env.Env.cycle;
      c_cycles = Stats.counter stats (prefix ^ ".cycles");
      c_kernel = Stats.counter stats (prefix ^ ".cycles_in_mode.kernel");
      c_user = Stats.counter stats (prefix ^ ".cycles_in_mode.user");
      c_idle = Stats.counter stats (prefix ^ ".cycles_in_mode.idle");
    }
  in
  let charge n = t.pending_cycles <- t.pending_cycles + n in
  let translate ~vaddr ~write =
    match Tlb.lookup t.dtlb vaddr with
    | Tlb.L1_hit e | Tlb.L2_hit e -> Some (Tlb.paddr_of e vaddr)
    | Tlb.Tlb_miss ->
      (match
         Pt.walk env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write
           ~user:(ctx.Context.mode = Context.User) ~exec:false ~set_ad:false ()
       with
      | Error _ -> None
      | Ok tr ->
        let e = Tlb.entry_of_walk tr in
        let e =
          if e.Tlb.huge && not t.hugepages then
            { e with Tlb.huge = false; mfn = tr.Pt.mfn }
          else e
        in
        Tlb.insert t.dtlb vaddr e;
        (* blocking page walk; the PWC cuts the dependent-load chain *)
        let addrs = tr.Pt.pte_addrs in
        let loads =
          match t.pwc with
          | None -> List.length addrs
          | Some pwc ->
            let left =
              Pwc.loads_left pwc vaddr ~walk_len:(List.length addrs)
            in
            Pwc.insert pwc vaddr ~pte_addrs:addrs;
            left
        in
        let drop = List.length addrs - loads in
        List.iteri
          (fun i pa ->
            if i >= drop then
              charge (Hierarchy.load t.hierarchy ~cycle:env.Env.cycle ~paddr:pa))
          addrs;
        Some (Pt.to_paddr tr vaddr))
  in
  t.seq.Seqcore.hooks <-
    Some
      {
        Seqcore.h_load =
          (fun ~vaddr ~rip ->
            ignore rip;
            match translate ~vaddr ~write:false with
            | Some paddr -> charge (Hierarchy.load t.hierarchy ~cycle:env.Env.cycle ~paddr)
            | None -> ());
        h_store =
          (fun ~vaddr ~rip ->
            ignore rip;
            match translate ~vaddr ~write:true with
            | Some paddr -> charge (Hierarchy.store t.hierarchy ~cycle:env.Env.cycle ~paddr)
            | None -> ());
        h_branch =
          (fun ~rip ~taken ~target ~conditional ~call:_ ~ret:_ ~next_rip:_ ->
            if conditional then begin
              let pred = Predictor.predict_cond t.bpred ~rip in
              let mispredicted = pred <> taken in
              Predictor.update_cond t.bpred ~rip ~taken ~mispredicted;
              if mispredicted then begin
                if !Trace.on then
                  Trace.emit ~rip ~info:target
                    ~tag:(if taken then "taken" else "nt")
                    Trace.Mispredict;
                charge 8
              end
            end
            else begin
              (* indirect/direct: BTB-checked *)
              match Predictor.predict_target t.bpred ~rip with
              | Some p when p = target -> ()
              | _ ->
                Predictor.update_target t.bpred ~rip ~target;
                if !Trace.on then
                  Trace.emit ~rip ~info:target ~tag:"btb" Trace.Mispredict;
                charge 8
            end);
        h_insn =
          (fun ~rip ~kernel ->
            ignore rip;
            (* base CPI of 1 plus an i-cache charge per instruction line *)
            charge 1;
            if kernel then Stats.incr t.c_kernel else Stats.incr t.c_user);
      };
  t

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
  t.pending_cycles <- 0;
  let st = Seqcore.step_block t.seq in
  let cost = max 1 t.pending_cycles in
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
