(** The out-of-order superscalar core (optionally SMT).

    Modeled stage by stage as in the paper (§2.2): fetch from the basic
    block cache with branch prediction; rename onto a physical register
    file through per-thread register alias tables; dispatch into clustered
    issue queues with broadcast wakeup (per-physreg consumer lists feed a
    per-cluster ready set); oldest-first select per cluster with
    functional-unit constraints; execution through the shared pure uop
    executor; completion through a writeback-cycle wheel; a unified
    load/store queue with store-to-load forwarding,
    replay on conflicts and optional load hoisting; speculative recovery by
    walking the ROB backwards to restore the RAT; and a commit unit that
    enforces x86 instruction atomicity, delivers precise exceptions and
    interrupts at macro-op boundaries, trains the branch predictor, honours
    self-modifying code, and drives the interlock controller for LOCKed
    operations.

    Threads (up to 16, §2.2) share issue queues, functional units, the
    physical register file and the cache hierarchy but have private fetch
    queues, ROBs, LSQs and alias tables — the paper's SMT arrangement. *)

open Ptl_util
module Uop = Ptl_uop.Uop
module Exec = Ptl_uop.Exec
module Bbcache = Ptl_uop.Bbcache
module Context = Ptl_arch.Context
module Fault = Ptl_arch.Fault
module Assists = Ptl_arch.Assists
module Vmem = Ptl_arch.Vmem
module Env = Ptl_arch.Env
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Hierarchy = Ptl_mem.Hierarchy
module Predictor = Ptl_bpred.Predictor
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace

(* An alias-table mapping is an int: [arch] when the architectural
   register holds the value, otherwise the physical register. An entry's
   [old_rd]/[old_flags] is [not_renamed] when it did not rename that
   register. *)
let arch = -1
let not_renamed = -2

type entry_state =
  | Waiting  (* in an issue queue, sources not all ready / not selected *)
  | Issued  (* executing; completes at writeback_cycle *)
  | Done
  | Faulted  (* the fault is in [fault] *)

(* Where fetch resumes after a redirect. *)
type redirect =
  | To_rip of int64
  | Into_block of { ib_rip : int64; ib_index : int }

type rob_entry = {
  uop : Uop.t;
  handle : int;  (* tid * rob_size + ROB slot: the entry's name in [slots] *)
  seq : int;
  uuid : int;  (* fetch-order id for the event trace *)
  thread : int;
  bb_rip : int64;  (* start of the basic block this uop was fetched from *)
  bb_index : int;  (* index within that block *)
  dest : int;  (* value physreg, -1 if none *)
  dest_flags : int;  (* flags physreg, -1 if none *)
  old_rd : int;  (* previous mapping of uop.rd, or [not_renamed] *)
  old_flags : int;  (* previous mapping of the flags reg, or [not_renamed] *)
  src_a : int;  (* source mappings, [arch] or a physreg *)
  src_b : int;
  src_c : int;
  src_f : int;  (* flags source when readflags *)
  mutable state : entry_state;
  mutable fault : Fault.t option;  (* written only when state is Faulted *)
  mutable writeback_cycle : int;
  mutable in_iq : int;  (* cluster index while queued, -1 otherwise *)
  mutable exec_cluster : int;  (* cluster the uop executes in *)
  (* wakeup: sources not yet written, and the first cycle at which every
     written source is visible from the entry's cluster *)
  mutable unready : int;
  mutable ready_at : int;
  mutable wb_slot : int;  (* completion-wheel cycle while Issued *)
  mutable result : int64;
  mutable rflags : int;
  (* branch resolution *)
  pred_taken : bool;
  pred_target : int64;
  ras_ck : Predictor.ras_checkpoint option;
  mutable taken : bool;
  mutable target : int64;
  mutable mispredicted : bool;
  (* memory *)
  mutable vaddr : int64;
  mutable paddr : int;
  mutable addr_valid : bool;
  mutable store_data : int64;
  mutable locked_acquired : bool;
  mutable replays : int;
  (* replayed uops re-enter selection only after a short delay, so a
     replay loop cannot monopolize an issue port and starve other
     (SMT) threads' ready uops *)
  mutable retry_cycle : int;
}

(* A uop sitting in the fetch queue with its prediction. *)
type fetched = {
  f_uop : Uop.t;
  f_uuid : int;  (* fetch-order id for the event trace *)
  f_bb_rip : int64;
  f_bb_index : int;
  f_cycle : int;  (* fetch cycle, for frontend depth *)
  f_pred_taken : bool;
  f_pred_target : int64;
  f_ras_ck : Predictor.ras_checkpoint option;
  f_fault : Fault.t option;
}

type thread_state = {
  tid : int;
  ctx : Context.t;
  rat : int array;  (* [arch] or a physreg, per architectural register *)
  rob : rob_entry Ring.t;
  lsq : rob_entry Ring.t;
  fetchq : fetched Ring.t;
  mutable fetch_rip : int64;
  mutable fetch_bb : Bbcache.bb option;
  mutable fetch_bb_index : int;
  mutable fetch_stall_until : int;
  mutable fetch_enabled : bool;  (* false after a fetch fault / assist until redirect *)
  mutable redirect : (int * redirect) option;  (* effective cycle, where *)
  mutable last_fetch_line : int;
  mutable tlb_gen_seen : int;
  mutable last_progress : int;  (* watchdog: last cycle with commit progress *)
}

type t = {
  config : Config.t;
  env : Env.t;
  core_id : int;
  prefix : string;  (* stats / trace namespace, e.g. "ooo" *)
  threads : thread_state array;
  prf : Physreg.t;
  clusters : Config.cluster array;
  fu_hosts : int array array;  (* per FU class: the clusters hosting it *)
  (* Handle -> entry for every ROB slot of every thread; an empty slot
     holds [dummy_entry]. The structures below name entries by handle,
     so their per-cycle stores are of immediates. *)
  slots : rob_entry array;
  (* The issue queues. A queued entry claims its cluster in [in_iq];
     each cluster counts its free slots and its entries per thread. An
     entry with unwritten sources waits on those registers' consumer
     lists; once every source is written it sits in its cluster's ready
     set, kept in [seq] order. *)
  iq_free : int array;  (* per cluster *)
  iq_thread : int array;  (* per (cluster, thread): cluster * nthreads + tid *)
  (* Consumer lists are intrusive: source [k] (a, b, c, flags) of the
     entry with handle [h] is node [h * 4 + k]. *)
  waiter_head : int array;  (* per physreg: first node, -1 if none *)
  wnode_next : int array;  (* per node: next node on the same list, or -1 *)
  ready : int array array;  (* per cluster, [ready_len] live handles, by seq *)
  ready_len : int array;
  select_buf : int array;  (* one cluster's selection this cycle *)
  (* Completion wheel: an Issued entry waits in bucket
     [wb_slot land wheel_mask], a list threaded through [wheel_next];
     [wheel_done] is the last cycle drained. *)
  wheel : int array;  (* per bucket: first handle, -1 if empty *)
  wheel_next : int array;  (* per handle: next in the same bucket, or -1 *)
  mutable wheel_done : int;
  due : int array;  (* writeback scratch, [ndue] live handles *)
  mutable ndue : int;
  bbcache : Bbcache.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  bpred : Predictor.t;
  interlock : Interlock.t;
  mutable seq_counter : int;
  mutable uuid_counter : int;  (* fetch-order trace ids *)
  mutable fetch_round : int;  (* SMT round-robin pointer *)
  (* L1D bank-conflict modeling: the last cycle each bank was used *)
  bank_cycle : int array;
  (* counters *)
  c_cycles : Stats.counter;
  c_insns : Stats.counter;
  c_uops : Stats.counter;
  c_triads : Stats.counter;
  c_loads : Stats.counter;
  c_stores : Stats.counter;
  c_branches : Stats.counter;
  c_cond_branches : Stats.counter;
  c_mispredicts : Stats.counter;
  c_dtlb_misses : Stats.counter;
  c_dtlb_accesses : Stats.counter;
  c_itlb_misses : Stats.counter;
  c_replays : Stats.counter;
  c_bank_conflicts : Stats.counter;
  c_flushes : Stats.counter;
  c_assists : Stats.counter;
  c_faults : Stats.counter;
  c_irqs : Stats.counter;
  c_smc_flushes : Stats.counter;
  c_kernel_cycles : Stats.counter;
  c_user_cycles : Stats.counter;
  c_idle_cycles : Stats.counter;
  c_hoist_violations : Stats.counter;
}

(* Filler for the empty slots of the ROB, the LSQ and [slots]; never in
   the pipeline. *)
let dummy_entry =
  {
    uop = Uop.default; handle = -1; seq = -1; uuid = -1; thread = -1;
    bb_rip = 0L; bb_index = 0; dest = -1; dest_flags = -1;
    old_rd = not_renamed; old_flags = not_renamed; src_a = arch; src_b = arch;
    src_c = arch; src_f = arch; state = Done; fault = None; writeback_cycle = 0;
    in_iq = -1; exec_cluster = -1; unready = 0; ready_at = 0; wb_slot = -1; result = 0L; rflags = 0; pred_taken = false;
    pred_target = 0L; ras_ck = None; taken = false; target = 0L;
    mispredicted = false; vaddr = 0L; paddr = -1; addr_valid = false;
    store_data = 0L; locked_acquired = false; replays = 0; retry_cycle = 0;
  }

(* Filler for the fetch queue's empty slots. *)
let dummy_fetched =
  {
    f_uop = Uop.default; f_uuid = -1; f_bb_rip = 0L; f_bb_index = 0;
    f_cycle = 0; f_pred_taken = false; f_pred_target = 0L; f_ras_ck = None;
    f_fault = None;
  }

(* Wheel buckets: a power of two. Entries completing further ahead share
   a bucket with nearer ones and are skipped until their cycle comes. *)
let wheel_size = 64
let wheel_mask = wheel_size - 1

(* Index of an FU class in [fu_hosts]. *)
let fu_index = function
  | Config.FU_alu -> 0
  | Config.FU_mul -> 1
  | Config.FU_div -> 2
  | Config.FU_mem -> 3
  | Config.FU_fp -> 4
  | Config.FU_branch -> 5

let create ?(core_id = 0) ?(prefix = "ooo") ?interlock ?bbcache ?uarch
    (config : Config.t) env contexts =
  if Array.length contexts <> config.Config.smt_threads then
    invalid_arg "Ooo_core.create: one context per thread";
  let stats = env.Env.stats in
  (* a shared uarch (sampled simulation) supplies long-lived structures
     that survive this instance; otherwise build a private cold set *)
  let uarch =
    match uarch with
    | Some u -> u
    | None -> Uarch.create ~prefix config stats
  in
  let c suffix = Stats.counter stats (prefix ^ "." ^ suffix) in
  let clusters = Array.of_list config.Config.clusters in
  let nclusters = Array.length clusters and nthreads = Array.length contexts in
  let thread tid ctx =
    {
      tid;
      ctx;
      rat = Array.make Uop.num_arch_regs arch;
      rob = Ring.create config.Config.rob_size dummy_entry;
      lsq = Ring.create config.Config.lsq_size dummy_entry;
      fetchq = Ring.create config.Config.fetch_queue dummy_fetched;
      fetch_rip = ctx.Context.rip;
      fetch_bb = None;
      fetch_bb_index = 0;
      fetch_stall_until = 0;
      fetch_enabled = true;
      redirect = None;
      last_fetch_line = -1;
      tlb_gen_seen = ctx.Context.tlb_generation;
      (* baseline at the current virtual cycle: cores are rebuilt on
         every native->sim switch, arbitrarily late in the run *)
      last_progress = env.Env.cycle;
    }
  in
  let nhandles = nthreads * config.Config.rob_size in
  {
    config;
    env;
    core_id;
    prefix;
    threads = Array.mapi thread contexts;
    prf = Physreg.create config.Config.phys_regs;
    clusters;
    fu_hosts =
      Array.init 6 (fun k ->
          Array.of_list
            (List.filter
               (fun ci ->
                 List.exists (fun cls -> fu_index cls = k) clusters.(ci).Config.fu_classes)
               (List.init nclusters Fun.id)));
    slots = Array.make nhandles dummy_entry;
    iq_free = Array.map (fun cl -> cl.Config.iq_size) clusters;
    iq_thread = Array.make (nclusters * nthreads) 0;
    waiter_head = Array.make config.Config.phys_regs (-1);
    wnode_next = Array.make (4 * nhandles) (-1);
    ready = Array.map (fun cl -> Array.make cl.Config.iq_size (-1)) clusters;
    ready_len = Array.make nclusters 0;
    select_buf =
      Array.make
        (Array.fold_left (fun a cl -> max a cl.Config.issue_width) 0 clusters)
        (-1);
    wheel = Array.make wheel_size (-1);
    wheel_next = Array.make nhandles (-1);
    wheel_done = env.Env.cycle - 1;
    due = Array.make nhandles (-1);
    ndue = 0;
    bbcache = (match bbcache with Some b -> b | None -> uarch.Uarch.bbcache);
    hierarchy = uarch.Uarch.hierarchy;
    dtlb = uarch.Uarch.dtlb;
    itlb = uarch.Uarch.itlb;
    pwc = uarch.Uarch.pwc;
    bpred = uarch.Uarch.bpred;
    interlock =
      (match interlock with Some i -> i | None -> Interlock.create stats);
    seq_counter = 0;
    uuid_counter = 0;
    fetch_round = 0;
    bank_cycle =
      Array.make uarch.Uarch.hierarchy.Hierarchy.config.Hierarchy.l1d.Ptl_mem.Cache.banks (-1);
    c_cycles = c "cycles";
    c_insns = c "commit.insns";
    c_uops = c "commit.uops";
    c_triads = c "commit.triads";
    c_loads = c "commit.loads";
    c_stores = c "commit.stores";
    c_branches = c "commit.branches";
    c_cond_branches = c "commit.cond_branches";
    c_mispredicts = c "commit.mispredicts";
    c_dtlb_misses = c "dcache.dtlb_misses";
    c_dtlb_accesses = c "dcache.dtlb_accesses";
    c_itlb_misses = c "fetch.itlb_misses";
    c_replays = c "issue.replays";
    c_bank_conflicts = c "issue.bank_conflicts";
    c_flushes = c "flushes";
    c_assists = c "commit.assists";
    c_faults = c "commit.faults";
    c_irqs = c "commit.irqs";
    c_smc_flushes = c "commit.smc_flushes";
    c_kernel_cycles = c "cycles_in_mode.kernel";
    c_user_cycles = c "cycles_in_mode.user";
    c_idle_cycles = c "cycles_in_mode.idle";
    c_hoist_violations = c "lsq.hoist_violations";
  }

let now t = t.env.Env.cycle

(* Trace helpers. Every call site guards with [if !Trace.on then ...] so
   the disabled path costs one branch and allocates nothing; these run
   only when tracing is armed. *)
let trace_uop t (e : rob_entry) kind =
  Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:e.uop.Uop.rip kind

let trace_replay t (e : rob_entry) reason =
  Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:e.uop.Uop.rip
    ~info:e.vaddr ~tag:reason Trace.Replay

(* ---------- RAT / physreg plumbing ---------- *)

let src_of th reg = if reg = Uop.reg_none then arch else th.rat.(reg)

let src_value t th m reg =
  if m >= 0 then Physreg.value t.prf m
  else if reg = Uop.reg_none then 0L
  else Context.get_reg th.ctx reg

let flags_value t th m = if m >= 0 then Physreg.flags t.prf m else th.ctx.Context.flags

(* ---------- issue queues: dispatch, wakeup, ready sets ---------- *)

let[@inline] imax (a : int) b = if a >= b then a else b

(* First cycle physreg [p] is usable from [cluster]. *)
let visible t p cluster =
  Physreg.visible_cycle t.prf p ~cluster
    ~forward_delay:t.clusters.(cluster).Config.forward_delay

(* Insert into cluster [c]'s ready set, keeping it in [seq] order. *)
let ready_insert t c e =
  let a = t.ready.(c) in
  let i = ref t.ready_len.(c) in
  while !i > 0 && t.slots.(a.(!i - 1)).seq > e.seq do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- e.handle;
  t.ready_len.(c) <- t.ready_len.(c) + 1

let ready_remove t c e =
  let a = t.ready.(c) and n = t.ready_len.(c) and h = e.handle in
  let i = ref 0 in
  while !i < n && a.(!i) <> h do incr i done;
  if !i < n then begin
    for j = !i to n - 2 do
      a.(j) <- a.(j + 1)
    done;
    t.ready_len.(c) <- n - 1
  end

(* Remove [x] from the list that starts at [heads.(i)] and is threaded
   through [next]. *)
let unlink heads i next x =
  let first = heads.(i) in
  if first = x then heads.(i) <- next.(x)
  else begin
    let prev = ref first in
    while !prev >= 0 && next.(!prev) <> x do
      prev := next.(!prev)
    done;
    if !prev >= 0 then next.(!prev) <- next.(x)
  end

(* Subscribe source [k] (mapping [m]) of a queued entry to an unwritten
   physreg, or fold a written one into its [ready_at]. *)
let watch t c entry k m =
  if m >= 0 then
    if Physreg.is_written t.prf m then
      entry.ready_at <- imax entry.ready_at (visible t m c)
    else begin
      entry.unready <- entry.unready + 1;
      let node = (entry.handle * 4) + k in
      t.wnode_next.(node) <- t.waiter_head.(m);
      t.waiter_head.(m) <- node
    end

(* Dispatch [entry] into cluster [c]: take a slot, then either wait on
   each unwritten source's consumer list or, with every source written,
   enter the ready set. *)
let iq_insert t c entry =
  t.iq_free.(c) <- t.iq_free.(c) - 1;
  let k = (c * Array.length t.threads) + entry.thread in
  t.iq_thread.(k) <- t.iq_thread.(k) + 1;
  entry.in_iq <- c;
  watch t c entry 0 entry.src_a;
  watch t c entry 1 entry.src_b;
  watch t c entry 2 entry.src_c;
  if entry.uop.Uop.readflags then watch t c entry 3 entry.src_f;
  if entry.unready = 0 then ready_insert t c entry

(* Broadcast the write of physreg [p] to its queued consumers, the list
   starting at [node]. *)
let rec wake t p node =
  if node >= 0 then begin
    let next = t.wnode_next.(node) in
    let e = t.slots.(node lsr 2) in
    let c = e.in_iq in
    if c >= 0 then begin
      e.ready_at <- imax e.ready_at (visible t p c);
      e.unready <- e.unready - 1;
      if e.unready = 0 then ready_insert t c e
    end;
    wake t p next
  end

let broadcast t p =
  let node = t.waiter_head.(p) in
  if node >= 0 then begin
    t.waiter_head.(p) <- -1;
    wake t p node
  end

(* Undo [watch] for a source still unwritten (annulment). *)
let unwatch t entry k m =
  if m >= 0 && not (Physreg.is_written t.prf m) then
    unlink t.waiter_head m t.wnode_next ((entry.handle * 4) + k)

(* Leave the issue queue (issued, faulted or annulled): free the slot
   and drop the entry from the ready set or from the consumer lists of
   the sources it still waits on. *)
let iq_remove t entry =
  let c = entry.in_iq in
  if c >= 0 then begin
    t.iq_free.(c) <- t.iq_free.(c) + 1;
    let k = (c * Array.length t.threads) + entry.thread in
    t.iq_thread.(k) <- t.iq_thread.(k) - 1;
    if entry.unready = 0 then ready_remove t c entry
    else begin
      unwatch t entry 0 entry.src_a;
      unwatch t entry 1 entry.src_b;
      unwatch t entry 2 entry.src_c;
      if entry.uop.Uop.readflags then unwatch t entry 3 entry.src_f
    end;
    entry.in_iq <- -1
  end

(* SMT deadlock prevention (§2.2 "deadlock prevention schemes"): every
   issue queue keeps one slot in reserve for each thread that has no
   entry in it, so a thread whose progress others are waiting on (e.g.
   the interlock owner) can always dispatch at least one uop. Without
   this, two spinning threads can jointly fill a queue and deadlock the
   owner out of it. *)
let iq_thread_may_insert t cluster tid =
  let nthreads = Array.length t.threads in
  if nthreads = 1 then t.iq_free.(cluster) > 0
  else begin
    let absent_others = ref 0 in
    for i = 0 to nthreads - 1 do
      if i <> tid && t.iq_thread.((cluster * nthreads) + i) = 0 then
        incr absent_others
    done;
    t.iq_free.(cluster) > !absent_others
  end

(* Pick the cluster for a uop: one that hosts the FU class, preferring the
   one with the most free issue-queue slots (simple load balancing over the
   K8's three lanes). *)
let cluster_for t (u : Uop.t) =
  let hosts = t.fu_hosts.(fu_index (Config.fu_class_of u)) in
  let best = ref (-1) and best_free = ref (-1) in
  for k = 0 to Array.length hosts - 1 do
    let i = hosts.(k) in
    if t.iq_free.(i) > !best_free then begin
      best := i;
      best_free := t.iq_free.(i)
    end
  done;
  !best

(* ---------- completion wheel ---------- *)

(* Mark [e] executing until [wb]. It is written back by the first
   writeback stage at or after [wb] that has not already run. *)
let wheel_insert t e wb =
  e.writeback_cycle <- wb;
  e.state <- Issued;
  let slot = imax wb (t.wheel_done + 1) in
  e.wb_slot <- slot;
  let b = slot land wheel_mask in
  t.wheel_next.(e.handle) <- t.wheel.(b);
  t.wheel.(b) <- e.handle

let wheel_remove t e = unlink t.wheel (e.wb_slot land wheel_mask) t.wheel_next e.handle

(* ---------- annulment and recovery ---------- *)

(* Annul the youngest [n] ROB entries of a thread, restoring the RAT by
   walking youngest -> oldest (the paper's ROB-walk recovery). *)
let annul_youngest t th n =
  let oldest_seq =
    if n > 0 then (Ring.get th.rob (Ring.length th.rob - n)).seq else max_int
  in
  for k = 0 to n - 1 do
    let idx = Ring.length th.rob - 1 - k in
    let e = Ring.get th.rob idx in
    if !Trace.on then trace_uop t e Trace.Annul;
    if e.old_rd <> not_renamed then th.rat.(e.uop.Uop.rd) <- e.old_rd;
    if e.old_flags <> not_renamed then th.rat.(Uop.reg_flags) <- e.old_flags;
    (match e.uop.Uop.op with
    | Uop.Ldl ->
      Interlock.trace t.interlock "%d: annul ldl seq=%d th=%d acq=%b state=%s" (now t)
        e.seq e.thread e.locked_acquired
        (match e.state with Waiting -> "w" | Issued -> "i" | Done -> "d" | Faulted -> "f")
    | Uop.Strel ->
      Interlock.trace t.interlock "%d: annul strel seq=%d th=%d" (now t) e.seq e.thread
    | _ -> ());
    if e.dest >= 0 then Physreg.release t.prf e.dest;
    if e.dest_flags >= 0 then Physreg.release t.prf e.dest_flags;
    iq_remove t e;
    (match e.state with Issued -> wheel_remove t e | _ -> ());
    if e.locked_acquired then
      Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid
        ~paddr:e.paddr;
    t.slots.(e.handle) <- dummy_entry;
    (* restore speculative RAS state *)
    match e.ras_ck with
    | Some ck -> Predictor.ras_restore t.bpred ck
    | None -> ()
  done;
  Ring.drop_youngest th.rob n;
  (* the LSQ is an age-ordered subsequence of the ROB: the annulled
     memory uops are exactly its youngest entries from [oldest_seq] on *)
  let nl = Ring.length th.lsq in
  let drop = ref 0 in
  while !drop < nl && (Ring.get th.lsq (nl - 1 - !drop)).seq >= oldest_seq do
    incr drop
  done;
  Ring.drop_youngest th.lsq !drop

(* Annul every entry younger than [entry] (exclusive). *)
let annul_after t th entry =
  let total = Ring.length th.rob in
  let rec age i = if Ring.get th.rob i == entry then i else age (i + 1) in
  let pos = age 0 in
  annul_youngest t th (total - pos - 1)

(* Annul [entry] and everything younger (inclusive). *)
let annul_from t th entry =
  let total = Ring.length th.rob in
  let rec age i = if Ring.get th.rob i == entry then i else age (i + 1) in
  let pos = age 0 in
  annul_youngest t th (total - pos)

(* After a full flush the context holds all committed state: revert every
   RAT mapping to [arch] and release the physregs that held committed
   values (no in-flight consumer can exist — the ROB is empty). *)
let reset_rat t th =
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        Physreg.release t.prf p;
        th.rat.(i) <- arch
      end)
    th.rat

let flush_fetch th =
  Ring.clear th.fetchq;
  th.fetch_bb <- None;
  th.fetch_bb_index <- 0;
  th.last_fetch_line <- -1

(* Full pipeline flush for one thread; fetch resumes at [rip] after the
   redirect penalty. *)
let flush_thread t th ~rip =
  Stats.incr t.c_flushes;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip ~tag:t.prefix Trace.Flush;
  annul_youngest t th (Ring.length th.rob);
  reset_rat t th;
  flush_fetch th;
  Interlock.release_all t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid;
  th.fetch_enabled <- true;
  th.redirect <- Some (now t + t.config.Config.redirect_penalty, To_rip rip)

(* ---------- fetch ---------- *)

(* The TLB entry a walk fills: a single 2M entry when this configuration
   honors huge pages, else the exact 4K fragment (architecturally
   identical; only the reach differs). *)
let tlb_fill_entry t (tr : Pt.translation) =
  let e = Tlb.entry_of_walk tr in
  if e.Tlb.huge && not t.config.Config.tlb_hugepages then
    { e with Tlb.huge = false; mfn = tr.Pt.mfn }
  else e

(* Consult the page-walk caches: further cut the dependent-load chain of
   a walk that would issue [loads] loads, and remember the walked
   tables. *)
let pwc_filter_loads t vaddr ~addrs loads =
  match t.pwc with
  | None -> loads
  | Some pwc ->
    let left = Pwc.loads_left pwc vaddr ~walk_len:loads in
    Pwc.insert pwc vaddr ~pte_addrs:addrs;
    left

let itlb_fetch_latency t th vaddr =
  (* ITLB lookup; misses walk the page table with timed PTE loads. *)
  match Tlb.lookup t.itlb vaddr with
  | Tlb.L1_hit _ | Tlb.L2_hit _ -> 0
  | Tlb.Tlb_miss ->
    Stats.incr t.c_itlb_misses;
    let ctx = th.ctx in
    (match
       Pt.walk t.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write:false
         ~user:(ctx.Context.mode = Context.User) ~exec:true ()
     with
    | Error _ -> 0 (* the fault will surface when decode fetches bytes *)
    | Ok tr ->
      Tlb.insert t.itlb vaddr (tlb_fill_entry t tr);
      let addrs = tr.Pt.pte_addrs in
      let loads = min (Tlb.walk_loads t.itlb vaddr) (List.length addrs) in
      let loads = pwc_filter_loads t vaddr ~addrs loads in
      let charged =
        (* charge the last [loads] walk references (PDE cache / PWC skip
           the upper levels) *)
        let rec drop l n = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop tl (n - 1) in
        drop addrs (List.length addrs - loads)
      in
      List.fold_left
        (fun acc pa -> acc + Hierarchy.load t.hierarchy ~cycle:(now t + acc) ~paddr:pa)
        0 charged)

(* Predict a branch at fetch time; returns (taken, target, ras checkpoint
   if the RAS was touched). *)
let predict_branch t (u : Uop.t) =
  match u.Uop.op with
  | Uop.Bru ->
    if u.Uop.hint_call then begin
      let ck = Predictor.ras_checkpoint t.bpred in
      Predictor.ras_push t.bpred u.Uop.next_rip;
      (true, u.Uop.br_target, Some ck)
    end
    else (true, u.Uop.br_target, None)
  | Uop.Brc _ | Uop.Brnz | Uop.Brz ->
    let taken = Predictor.predict_cond t.bpred ~rip:u.Uop.rip in
    (taken, (if taken then u.Uop.br_target else u.Uop.next_rip), None)
  | Uop.Jmpr ->
    if u.Uop.hint_ret then begin
      let ck = Predictor.ras_checkpoint t.bpred in
      match Predictor.ras_pop t.bpred with
      | Some target -> (true, target, Some ck)
      | None -> (true, u.Uop.next_rip, Some ck)
    end
    else begin
      if u.Uop.hint_call then Predictor.ras_push t.bpred u.Uop.next_rip;
      match Predictor.predict_target t.bpred ~rip:u.Uop.rip with
      | Some target -> (true, target, None)
      | None -> (true, u.Uop.next_rip, None)
    end
  | _ -> (false, 0L, None)

let push_fault_uop t th fault =
  let u =
    { Uop.default with Uop.op = Uop.Nop; som = true; eom = true;
      rip = th.fetch_rip; next_rip = th.fetch_rip }
  in
  t.uuid_counter <- t.uuid_counter + 1;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:t.uuid_counter
      ~rip:th.fetch_rip ~tag:"fault" Trace.Fetch;
  Ring.push th.fetchq
    {
      f_uop = u;
      f_uuid = t.uuid_counter;
      f_bb_rip = th.fetch_rip;
      f_bb_index = 0;
      f_cycle = now t;
      f_pred_taken = false;
      f_pred_target = 0L;
      f_ras_ck = None;
      f_fault = Some fault;
    };
  (* stop fetching until the fault commits and redirects *)
  th.fetch_enabled <- false

(* Fetch up to [fetch_width] uops for thread [th]. *)
let fetch_thread t th =
  let ctx = th.ctx in
  (match th.redirect with
  | Some (cyc, where) when cyc <= now t ->
    th.redirect <- None;
    th.fetch_enabled <- true;
    (match where with
    | To_rip rip ->
      th.fetch_rip <- rip;
      th.fetch_bb <- None;
      th.fetch_bb_index <- 0
    | Into_block { ib_rip; ib_index } ->
      th.fetch_rip <- ib_rip;
      th.fetch_bb <- None;
      th.fetch_bb_index <- ib_index)
  | _ -> ());
  if th.fetch_enabled && Option.is_none th.redirect && ctx.Context.running
     && now t >= th.fetch_stall_until
  then begin
    let budget = ref t.config.Config.fetch_width in
    let stop = ref false in
    while (not !stop) && !budget > 0 && not (Ring.is_full th.fetchq) do
      (* ensure a current block *)
      (match th.fetch_bb with
      | Some _ -> ()
      | None -> (
        let rip = th.fetch_rip in
        let itlb_lat = itlb_fetch_latency t th rip in
        if itlb_lat > 0 then begin
          th.fetch_stall_until <- now t + itlb_lat;
          stop := true
        end
        else
          match
            Bbcache.lookup t.bbcache ~rip ~kernel:(Context.is_kernel ctx)
              ~fetch:(fun va -> Vmem.fetch_byte t.env.Env.vmem ctx ~at_rip:rip va)
              ~mfn_of:(fun va -> Vmem.code_mfn t.env.Env.vmem ctx ~at_rip:rip va)
          with
          | bb ->
            if Array.length bb.Bbcache.uops = 0 then begin
              (* empty block (fault on first instruction when re-decoded) *)
              push_fault_uop t th
                { Fault.kind = Fault.Invalid_opcode; at_rip = rip };
              stop := true
            end
            else th.fetch_bb <- Some bb
          | exception Fault.Guest_fault f ->
            push_fault_uop t th f;
            stop := true
          | exception Ptl_isa.Decode.Invalid_opcode _ ->
            push_fault_uop t th { Fault.kind = Fault.Invalid_opcode; at_rip = rip };
            stop := true));
      match th.fetch_bb with
      | None -> stop := true
      | Some bb ->
        if th.fetch_bb_index >= Array.length bb.Bbcache.uops then begin
          (* fell off a size-limited block: continue at the fallthrough *)
          th.fetch_rip <- bb.Bbcache.fallthrough_rip;
          th.fetch_bb <- None;
          th.fetch_bb_index <- 0
        end
        else begin
          let u = bb.Bbcache.uops.(th.fetch_bb_index) in
          (* model the i-cache: charge one access per 64-byte line *)
          let line = Int64.to_int (Int64.shift_right_logical u.Uop.rip 6) in
          let line_ok =
            if line = th.last_fetch_line then true
            else
              match
                Vmem.translate t.env.Env.vmem ctx ~vaddr:u.Uop.rip ~write:false
                  ~fetch:true ~at_rip:u.Uop.rip
              with
              | paddr ->
                th.last_fetch_line <- line;
                let lat = Hierarchy.ifetch t.hierarchy ~cycle:(now t) ~paddr in
                if lat > t.config.Config.hierarchy.Hierarchy.l1i.Ptl_mem.Cache.latency
                then begin
                  (* miss: the line arrives later; retry then *)
                  th.fetch_stall_until <- now t + lat;
                  stop := true;
                  false
                end
                else true
              | exception Fault.Guest_fault f ->
                push_fault_uop t th f;
                stop := true;
                false
          in
          if line_ok then begin
            let pred_taken, pred_target, ras_ck = predict_branch t u in
            t.uuid_counter <- t.uuid_counter + 1;
            if !Trace.on then
              Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:t.uuid_counter
                ~rip:u.Uop.rip ~slot:th.fetch_bb_index ~info:pred_target
                Trace.Fetch;
            Ring.push th.fetchq
              {
                f_uop = u;
                f_uuid = t.uuid_counter;
                f_bb_rip = bb.Bbcache.key.Bbcache.krip;
                f_bb_index = th.fetch_bb_index;
                f_cycle = now t;
                f_pred_taken = pred_taken;
                f_pred_target = pred_target;
                f_ras_ck = ras_ck;
                f_fault = None;
              };
            decr budget;
            th.fetch_bb_index <- th.fetch_bb_index + 1;
            if Uop.is_branch u then begin
              if pred_taken then begin
                th.fetch_rip <- pred_target;
                th.fetch_bb <- None;
                th.fetch_bb_index <- 0
              end
              (* predicted not-taken: continue within the block *)
            end
            else if Uop.is_assist u then begin
              (* serializing: stop fetch until the assist commits *)
              th.fetch_enabled <- false;
              stop := true
            end
          end
        end
    done
  end

(* ---------- rename / dispatch ---------- *)

let rename_thread t th =
  let budget = ref t.config.Config.rename_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 && not (Ring.is_empty th.fetchq) do
    let f = Ring.get th.fetchq 0 in
    if now t < f.f_cycle + t.config.Config.frontend_stages then stop := true
    else begin
      let u = f.f_uop in
      let is_mem = Uop.is_mem u in
      let is_assist = Uop.is_assist u || Option.is_some f.f_fault in
      let cluster = if is_assist then -1 else cluster_for t u in
      let iq_ok =
        is_assist || (cluster >= 0 && iq_thread_may_insert t cluster th.tid)
      in
      let need_dest = u.Uop.rd <> Uop.reg_none in
      let need_flags = u.Uop.setflags <> 0 in
      let n_needed = (if need_dest then 1 else 0) + if need_flags then 1 else 0 in
      if Ring.is_full th.rob
         || (is_mem && Ring.is_full th.lsq)
         || (not iq_ok)
         || Physreg.free_count t.prf < n_needed
      then stop := true
      else begin
        let dest = if need_dest then Physreg.alloc t.prf else -1 in
        let dest_flags = if need_flags then Physreg.alloc t.prf else -1 in
        let src_a = src_of th u.Uop.ra in
        let src_b = src_of th u.Uop.rb in
        let src_c = src_of th u.Uop.rc in
        let src_f =
          if u.Uop.readflags then th.rat.(Uop.reg_flags) else arch
        in
        let old_rd =
          if need_dest then begin
            let prev = th.rat.(u.Uop.rd) in
            th.rat.(u.Uop.rd) <- dest;
            prev
          end
          else not_renamed
        in
        let old_flags =
          if need_flags then begin
            let prev = th.rat.(Uop.reg_flags) in
            th.rat.(Uop.reg_flags) <- dest_flags;
            prev
          end
          else not_renamed
        in
        let handle =
          (th.tid * t.config.Config.rob_size) + Ring.tail_slot th.rob
        in
        t.seq_counter <- t.seq_counter + 1;
        let entry =
          {
            uop = u;
            handle;
            seq = t.seq_counter;
            uuid = f.f_uuid;
            thread = th.tid;
            bb_rip = f.f_bb_rip;
            bb_index = f.f_bb_index;
            dest;
            dest_flags;
            old_rd;
            old_flags;
            src_a;
            src_b;
            src_c;
            src_f;
            state =
              (match f.f_fault with
              | Some _ -> Faulted
              | None -> if is_assist then Done else Waiting);
            fault = f.f_fault;
            writeback_cycle = 0;
            in_iq = -1;
            exec_cluster = cluster;
            unready = 0;
            ready_at = 0;
            wb_slot = -1;
            result = 0L;
            rflags = 0;
            pred_taken = f.f_pred_taken;
            pred_target = f.f_pred_target;
            ras_ck = f.f_ras_ck;
            taken = false;
            target = 0L;
            mispredicted = false;
            vaddr = 0L;
            paddr = -1;
            addr_valid = false;
            store_data = 0L;
            locked_acquired = false;
            replays = 0;
            retry_cycle = 0;
          }
        in
        Ring.push th.rob entry;
        t.slots.(handle) <- entry;
        if !Trace.on then begin
          Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:entry.uuid
            ~rip:u.Uop.rip
            ~slot:(Ring.length th.rob - 1)
            Trace.Rename;
          Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:entry.uuid
            ~rip:u.Uop.rip ~slot:cluster Trace.Dispatch
        end;
        if is_mem then Ring.push th.lsq entry;
        if not is_assist then iq_insert t cluster entry;
        ignore (Ring.pop th.fetchq);
        decr budget
      end
    end
  done

(* ---------- memory pipeline helpers ---------- *)

(* Timed DTLB translation; returns (paddr, extra latency) or a fault. *)
let dtlb_translate t th ~vaddr ~write ~at_rip =
  Stats.incr t.c_dtlb_accesses;
  let ctx = th.ctx in
  let need_walk =
    match Tlb.lookup t.dtlb vaddr with
    | Tlb.L1_hit e | Tlb.L2_hit e -> if write && not e.Tlb.writable then None else Some e
    | Tlb.Tlb_miss -> None
  in
  match need_walk with
  | Some e -> Ok (Tlb.paddr_of e vaddr, 0)
  | None ->
    Stats.incr t.c_dtlb_misses;
    (match
       Pt.walk t.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write
         ~user:(ctx.Context.mode = Context.User) ~exec:false ()
     with
    | Error f ->
      ctx.Context.cr2 <- vaddr;
      Error
        {
          Fault.kind =
            Fault.Page_fault
              {
                vaddr;
                not_present = f.Pt.not_present;
                write;
                user = ctx.Context.mode = Context.User;
                fetch = false;
              };
          at_rip;
        }
    | Ok tr ->
      let addrs = tr.Pt.pte_addrs in
      let loads = min (Tlb.walk_loads t.dtlb vaddr) (List.length addrs) in
      Tlb.insert t.dtlb vaddr (tlb_fill_entry t tr);
      let loads = pwc_filter_loads t vaddr ~addrs loads in
      let rec drop l n =
        if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop tl (n - 1)
      in
      let charged = drop addrs (List.length addrs - loads) in
      (* the walker's loads are dependent: serialize their latencies *)
      let lat =
        List.fold_left
          (fun acc pa -> acc + Hierarchy.load t.hierarchy ~cycle:(now t + acc) ~paddr:pa)
          0 charged
      in
      Ok (Pt.to_paddr tr vaddr, lat))

(* Read [size] bytes of physical memory that may straddle a page: the
   second page's physical frame is found via a second translation. *)
let read_guest_data t th ~vaddr ~paddr ~size ~at_rip =
  let n = W64.bytes_of_size size in
  let off = paddr land Pm.page_mask in
  if off + n <= Pm.page_size then Ok (Pm.read_sized t.env.Env.mem paddr size, 0)
  else
    (* crossing access: translate the second page too *)
    let first = Pm.page_size - off in
    match
      dtlb_translate t th ~vaddr:(Int64.add vaddr (Int64.of_int first)) ~write:false ~at_rip
    with
    | Error f -> Error f
    | Ok (paddr2, lat2) ->
      let v =
        W64.of_bytes n (fun i ->
            if i < first then Pm.read8 t.env.Env.mem (paddr + i)
            else Pm.read8 t.env.Env.mem (paddr2 + (i - first)))
      in
      Ok (v, lat2 + 1)

(* Does [e]'s committed-order-earlier store overlap the load at
   [paddr,size]? *)
let ranges_overlap a alen b blen = a < b + blen && b < a + alen

(* Search the thread's store queue for stores older than [load]. *)
type sq_result =
  | Sq_none
  | Sq_forward of int64  (* value forwarded from the youngest matching store *)
  | Sq_unknown_addr  (* an older store address is still unresolved *)
  | Sq_partial  (* overlap that cannot be forwarded: wait/replay *)

(* Index in the LSQ of the youngest entry older than [e], or -1. The
   LSQ is in [seq] order, so a binary search finds it. *)
let youngest_older lsq (e : rob_entry) =
  let lo = ref 0 and hi = ref (Ring.length lsq) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Ring.get lsq mid).seq < e.seq then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The youngest older store that is unresolved or overlaps the load
   decides, so walk youngest-first from the load and stop there. *)
let store_queue_search th (load : rob_entry) =
  let n = W64.bytes_of_size load.uop.Uop.mem_size in
  let result = ref Sq_none and i = ref (youngest_older th.lsq load) in
  while !i >= 0 do
    let e = Ring.get th.lsq !i in
    decr i;
    match e.uop.Uop.op with
    | (Uop.St | Uop.Strel) when not e.addr_valid ->
      result := Sq_unknown_addr;
      i := -1
    | Uop.St | Uop.Strel ->
      let en = W64.bytes_of_size e.uop.Uop.mem_size in
      if ranges_overlap e.paddr en load.paddr n then begin
        result :=
          if e.paddr = load.paddr && en >= n then
            Sq_forward (W64.truncate load.uop.Uop.mem_size e.store_data)
          else Sq_partial;
        i := -1
      end
    | _ -> ()
  done;
  !result

(* Is a locked operation older than [load] still in the LSQ? *)
let older_locked_pending th (load : rob_entry) =
  let found = ref false and i = ref (youngest_older th.lsq load) in
  while !i >= 0 && not !found do
    (match (Ring.get th.lsq !i).uop.Uop.op with
    | Uop.Ldl | Uop.Strel -> found := true
    | _ -> ());
    decr i
  done;
  !found

(* ---------- execute ---------- *)

let thread_of t e = t.threads.(e.thread)

let set_fault e f =
  e.fault <- Some f;
  e.state <- Faulted

let redirect_fetch t th ~where =
  if !Trace.on then begin
    let target =
      match where with To_rip rip -> rip | Into_block { ib_rip; _ } -> ib_rip
    in
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip:target Trace.Redirect
  end;
  flush_fetch th;
  th.fetch_enabled <- true;
  th.redirect <- Some (now t + t.config.Config.redirect_penalty, where)

(* Resolve a branch at execute: detect misprediction, annul the wrong
   path and steer fetch. The branch itself stays in the ROB and commits
   normally (training happens at commit). *)
let resolve_branch t th (e : rob_entry) (out : Exec.outcome) =
  e.taken <- out.Exec.taken;
  e.target <- out.Exec.target;
  let wrong =
    if out.Exec.taken then (not e.pred_taken) || e.pred_target <> out.Exec.target
    else e.pred_taken
  in
  if wrong then begin
    e.mispredicted <- true;
    if !Trace.on then
      Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid
        ~rip:e.uop.Uop.rip ~info:out.Exec.target
        ~tag:(if out.Exec.taken then "taken" else "nt")
        Trace.Mispredict;
    annul_after t th e;
    let where =
      if out.Exec.taken then To_rip out.Exec.target
      else if e.uop.Uop.eom then To_rip e.uop.Uop.next_rip
      else Into_block { ib_rip = e.bb_rip; ib_index = e.bb_index + 1 }
    in
    redirect_fetch t th ~where
  end

(* With load hoisting enabled, a store resolving its address must check
   for younger loads that already executed against the same bytes; such
   loads consumed stale data and the pipeline replays from the oldest of
   them (the paper's replay-on-misspeculation machinery). A load is no
   victim when a store between the two, with a resolved address, covers
   all of its bytes: the load took its value from that store. Any such
   store overlaps [store] too, so only overlapping stores are kept. *)
let check_hoist_violation t th (store : rob_entry) =
  let sn = W64.bytes_of_size store.uop.Uop.mem_size in
  let covering = ref [] and victim = ref None in
  let i = ref (youngest_older th.lsq store + 1) in
  while !i < Ring.length th.lsq && Option.is_none !victim do
    let e = Ring.get th.lsq !i in
    incr i;
    let en = W64.bytes_of_size e.uop.Uop.mem_size in
    if e.seq > store.seq && e.addr_valid
       && ranges_overlap store.paddr sn e.paddr en
    then
      match e.uop.Uop.op with
      | Uop.St | Uop.Strel -> covering := e :: !covering
      | _ ->
        let covers (c : rob_entry) =
          c.paddr <= e.paddr
          && e.paddr + en <= c.paddr + W64.bytes_of_size c.uop.Uop.mem_size
        in
        if
          Uop.is_load e.uop
          && (match e.state with Done | Issued -> true | Waiting | Faulted -> false)
          && not (List.exists covers !covering)
        then victim := Some e
  done;
  match !victim with
  | None -> ()
  | Some load ->
    Stats.incr t.c_hoist_violations;
    let restart_rip = load.uop.Uop.rip in
    (* annul from the start of the load's macro-op *)
    let rec find_som i =
      let e = Ring.get th.rob i in
      if e.uop.Uop.som && e.uop.Uop.rip = restart_rip && e.seq <= load.seq then e
      else find_som (i + 1)
    in
    let som_entry = find_som 0 in
    annul_from t th som_entry;
    redirect_fetch t th ~where:(To_rip restart_rip)

(* Bank-conflict tracking: one access per L1D bank per cycle (K8 §5). *)
let bank_conflict t paddr =
  if not t.config.Config.enforce_banking then false
  else begin
    let bank = Ptl_mem.Cache.bank_of (Hierarchy.l1d t.hierarchy) paddr in
    if t.bank_cycle.(bank) = now t then true
    else begin
      t.bank_cycle.(bank) <- now t;
      false
    end
  end

let execute_load t th (e : rob_entry) (out : Exec.outcome) =
  let u = e.uop in
  let at_rip = u.Uop.rip in
  let vaddr = out.Exec.value in
  e.vaddr <- vaddr;
  match dtlb_translate t th ~vaddr ~write:false ~at_rip with
  | Error f ->
    set_fault e f;
    iq_remove t e
  | Ok (paddr, tlb_lat) -> (
    e.paddr <- paddr;
    e.addr_valid <- true;
    (* x86 LOCKed instructions are full fences: no load (plain or locked)
       may execute while an older locked operation of the same thread is
       still in flight. This both serializes locked sequences (deadlock
       prevention, §2.2) and stops speculative loads from reading stale
       data past an in-flight lock acquisition. *)
    if older_locked_pending th e then begin
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "fence";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 2
    end
    else begin
    (* locked loads must own the interlock before reading (§4.4) *)
    if u.Uop.op = Uop.Ldl && not e.locked_acquired then begin
      if Interlock.acquire t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid ~paddr then
        e.locked_acquired <- true
      else begin
        (* replay until the owner releases *)
        Stats.incr t.c_replays;
        if !Trace.on then trace_replay t e "lock-acquire";
        e.replays <- e.replays + 1;
        e.retry_cycle <- now t + 4;
        e.addr_valid <- false
      end
    end;
    if u.Uop.op = Uop.Ldl && not e.locked_acquired then () (* stays Waiting *)
    else if
      u.Uop.op = Uop.Ld
      && Interlock.locked_by_other t.interlock ~core:t.core_id ~thread:th.tid ~paddr
    then begin
      (* another thread interlocked this address: replay until release *)
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "locked-other";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else begin
      (* A locked load that cannot complete its read this cycle must NOT
         sit on the interlock: a younger speculative iteration could
         otherwise hold the lock while blocked behind the older
         iteration's unresolved store — a self-deadlock. The lock is only
         kept across a *successful* read (deadlock prevention, §2.2). *)
      let replay_release ?(reason = "") delay =
        Stats.incr t.c_replays;
        if !Trace.on then trace_replay t e reason;
        e.replays <- e.replays + 1;
        e.retry_cycle <- now t + delay;
        if e.locked_acquired then begin
          Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id
            ~thread:th.tid ~paddr;
          e.locked_acquired <- false
        end
      in
      match store_queue_search th e with
      | Sq_unknown_addr when not t.config.Config.load_hoisting ->
        (* K8: no load hoisting — wait for older store addresses *)
        replay_release ~reason:"sq-unknown" 2
      | Sq_partial -> replay_release ~reason:"sq-partial" 2
      | Sq_forward v ->
        e.result <- v;
        e.rflags <- out.Exec.flags;
        wheel_insert t e (now t + tlb_lat + 2) (* forwarding latency *);
        if !Trace.on then
          Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid
            ~rip:u.Uop.rip ~info:e.vaddr ~tag:"sq" Trace.Forward;
        iq_remove t e
      | Sq_none | Sq_unknown_addr -> (
        if bank_conflict t paddr then begin
          Stats.incr t.c_bank_conflicts;
          replay_release ~reason:"bank" 1
        end
        else
          match read_guest_data t th ~vaddr ~paddr ~size:u.Uop.mem_size ~at_rip with
          | Error f ->
            set_fault e f;
            iq_remove t e
          | Ok (raw, cross_lat) ->
            let lat = Hierarchy.load t.hierarchy ~cycle:(now t) ~paddr in
            e.result <- Exec.finish_load u raw;
            e.rflags <- out.Exec.flags;
            wheel_insert t e (now t + tlb_lat + cross_lat + lat);
            iq_remove t e)
    end
    end)

let execute_store t th (e : rob_entry) (out : Exec.outcome) ~rc =
  let u = e.uop in
  let at_rip = u.Uop.rip in
  let vaddr = out.Exec.value in
  e.vaddr <- vaddr;
  match dtlb_translate t th ~vaddr ~write:true ~at_rip with
  | Error f ->
    set_fault e f;
    iq_remove t e
  | Ok (paddr, tlb_lat) ->
    if
      u.Uop.op = Uop.St
      && Interlock.locked_by_other t.interlock ~core:t.core_id ~thread:th.tid ~paddr
    then begin
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "locked-other";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else if bank_conflict t paddr then begin
      Stats.incr t.c_bank_conflicts;
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "bank";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else begin
      e.paddr <- paddr;
      e.addr_valid <- true;
      e.store_data <- Exec.store_data u rc;
      e.rflags <- out.Exec.flags;
      wheel_insert t e (now t + tlb_lat + 1);
      iq_remove t e;
      if t.config.Config.load_hoisting then check_hoist_violation t th e
    end

let execute_entry t (e : rob_entry) =
  let th = thread_of t e in
  let u = e.uop in
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:u.Uop.rip
      ~slot:e.exec_cluster Trace.Issue;
  let ra = src_value t th e.src_a u.Uop.ra in
  let rb = src_value t th e.src_b u.Uop.rb in
  let rc = src_value t th e.src_c u.Uop.rc in
  let flags = if u.Uop.readflags then flags_value t th e.src_f else 0 in
  match Exec.execute u ~ra ~rb ~rc ~flags with
  | exception Exec.Divide_error ->
    set_fault e { Fault.kind = Fault.Divide_error; at_rip = u.Uop.rip };
    iq_remove t e
  | out ->
    if Uop.is_load u then execute_load t th e out
    else if Uop.is_store u then execute_store t th e out ~rc
    else begin
      e.result <- out.Exec.value;
      e.rflags <- out.Exec.flags;
      wheel_insert t e (now t + Config.uop_latency u);
      iq_remove t e;
      if Uop.is_branch u then resolve_branch t th e out
    end

(* Issue: per cluster, select up to issue_width ready entries. Broadcast
   wakeup (see [broadcast]) keeps each cluster's ready set exact, so
   select visits only entries whose sources are all written, in [seq]
   order.

   Oldest-first with replay deprioritization and a starvation bound.
   Actively-replaying uops (retry stamp near now) yield to everyone
   else: interleaved retry phases would otherwise own a narrow cluster's
   only slot forever. An entry whose last replay is old (it has been
   ready but unselected for a while) is promoted back to normal
   priority, so nothing starves indefinitely. *)
let[@inline] klass now e =
  if e.replays = 0 || now - e.retry_cycle > 64 then 0 else 1

let[@inline] is_waiting e = match e.state with Waiting -> true | _ -> false

(* Append to [buf] (holding [k] entries) the selectable ready entries of
   class [cls] in [seq] order until [width] are chosen; the new count. *)
let select_class slots now rs n cls buf k width =
  let k = ref k and i = ref 0 in
  while !k < width && !i < n do
    let h = rs.(!i) in
    let e = slots.(h) in
    if now >= e.retry_cycle && now >= e.ready_at && is_waiting e
       && klass now e = cls
    then begin
      buf.(!k) <- h;
      incr k
    end;
    incr i
  done;
  !k

let issue t =
  let now = now t and buf = t.select_buf and slots = t.slots in
  for ci = 0 to Array.length t.clusters - 1 do
    let width = t.clusters.(ci).Config.issue_width in
    let rs = t.ready.(ci) and n = t.ready_len.(ci) in
    let k = select_class slots now rs n 0 buf 0 width in
    let k = select_class slots now rs n 1 buf k width in
    for j = 0 to k - 1 do
      (* an earlier branch resolution in this same cycle may have
         annulled the entry, emptying its slot; it still used up its
         issue slot *)
      let e = slots.(buf.(j)) in
      if e.in_iq = ci && is_waiting e then execute_entry t e
    done
  done

(* ---------- writeback ---------- *)

(* Move the due entries of wheel bucket [b] to [t.due], keeping the
   rest in the bucket. Entries no longer Issued (a planted fault) are
   dropped. *)
let take_due t now b =
  let node = ref t.wheel.(b) and keep = ref (-1) in
  while !node >= 0 do
    let h = !node in
    node := t.wheel_next.(h);
    let e = t.slots.(h) in
    if e.wb_slot > now then begin
      t.wheel_next.(h) <- !keep;
      keep := h
    end
    else
      match e.state with
      | Issued ->
        t.due.(t.ndue) <- h;
        t.ndue <- t.ndue + 1
      | Waiting | Done | Faulted -> ()
  done;
  t.wheel.(b) <- !keep

(* Complete every Issued entry whose writeback cycle has come, in thread
   order and then ROB age, broadcasting each result to its consumers. *)
let writeback t =
  let now = now t in
  if now > t.wheel_done then begin
    t.ndue <- 0;
    for c = imax (t.wheel_done + 1) (now - wheel_mask) to now do
      let b = c land wheel_mask in
      if t.wheel.(b) >= 0 then take_due t now b
    done;
    t.wheel_done <- now;
    let due = t.due and n = t.ndue and slots = t.slots in
    (* insertion sort by (thread, seq): a handful of entries *)
    for i = 1 to n - 1 do
      let h = due.(i) in
      let e = slots.(h) in
      let j = ref i in
      while
        !j > 0
        && (let d = slots.(due.(!j - 1)) in
            d.thread > e.thread || (d.thread = e.thread && d.seq > e.seq))
      do
        due.(!j) <- due.(!j - 1);
        decr j
      done;
      due.(!j) <- h
    done;
    for i = 0 to n - 1 do
      let e = slots.(due.(i)) in
      if e.dest >= 0 then begin
        Physreg.write t.prf e.dest ~value:e.result ~flags:e.rflags
          ~cycle:e.writeback_cycle ~cluster:e.exec_cluster;
        broadcast t e.dest
      end;
      if e.dest_flags >= 0 then begin
        Physreg.write t.prf e.dest_flags ~value:0L ~flags:e.rflags
          ~cycle:e.writeback_cycle ~cluster:e.exec_cluster;
        broadcast t e.dest_flags
      end;
      e.state <- Done;
      e.wb_slot <- -1;
      if !Trace.on then trace_uop t e Trace.Writeback
    done
  end

(* ---------- commit ---------- *)

module Flags = Ptl_isa.Flags

(* Scan the macro-op at the ROB head. Returns the inclusive index of the
   last entry, or the reason it cannot commit yet. *)
type macro_scan =
  | Macro_ready of int
  | Macro_incomplete
  | Macro_fault of int  (* first faulting entry *)

let scan_head_macro th =
  let n = Ring.length th.rob in
  let rec go i =
    if i >= n then Macro_incomplete
    else begin
      let e = Ring.get th.rob i in
      match e.state with
      | Faulted -> Macro_fault i
      | Waiting | Issued -> Macro_incomplete
      | Done ->
        if Uop.is_branch e.uop && e.taken then Macro_ready i
        else if e.uop.Uop.eom then Macro_ready i
        else go (i + 1)
    end
  in
  go 0

let release_old t entry =
  if entry.old_rd >= 0 then Physreg.release t.prf entry.old_rd;
  if entry.old_flags >= 0 then Physreg.release t.prf entry.old_flags


(* Commit one store to guest memory, with timing charge and SMC check.
   Returns true if a self-modifying-code flush is required. *)
let commit_store t th (e : rob_entry) =
  let ctx = th.ctx in
  Vmem.write t.env.Env.vmem ctx ~vaddr:e.vaddr ~size:e.uop.Uop.mem_size
    ~value:e.store_data ~at_rip:e.uop.Uop.rip;
  ignore (Hierarchy.store t.hierarchy ~cycle:(now t) ~paddr:e.paddr);
  if e.uop.Uop.op = Uop.Strel then
    Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid
      ~paddr:e.paddr;
  Bbcache.store_committed t.bbcache (Pm.mfn_of_paddr e.paddr)

let train_branch t (e : rob_entry) =
  Stats.incr t.c_branches;
  if e.mispredicted then Stats.incr t.c_mispredicts;
  match e.uop.Uop.op with
  | Uop.Brc _ | Uop.Brnz | Uop.Brz ->
    Stats.incr t.c_cond_branches;
    Predictor.update_cond t.bpred ~rip:e.uop.Uop.rip ~taken:e.taken
      ~mispredicted:e.mispredicted
  | Uop.Jmpr ->
    if not e.uop.Uop.hint_ret then
      Predictor.update_target t.bpred ~rip:e.uop.Uop.rip ~target:e.target
  | Uop.Bru | _ -> ()

(* Deliver a fault precisely: nothing of the faulting instruction commits. *)
let commit_fault t th (f : Fault.t) =
  Stats.incr t.c_faults;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip:f.Fault.at_rip ~tag:"fault"
      Trace.Flush;
  annul_youngest t th (Ring.length th.rob);
  reset_rat t th;
  flush_fetch th;
  Interlock.release_all t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid;
  Assists.deliver_fault t.env th.ctx f;
  th.fetch_enabled <- true;
  th.redirect <-
    Some (now t + t.config.Config.redirect_penalty, To_rip th.ctx.Context.rip)

let commit_thread t th =
  let budget = ref t.config.Config.commit_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Ring.is_empty th.rob) do
    match scan_head_macro th with
    | Macro_incomplete -> continue_ := false
    | Macro_fault i ->
      (* wait until everything before the faulting uop is done, so an
         older fault can still win *)
      let all_done_before =
        let rec chk j =
          j >= i
          || (match (Ring.get th.rob j).state with Done -> true | _ -> false)
             && chk (j + 1)
        in
        chk 0
      in
      if all_done_before then begin
        (match (Ring.get th.rob i).fault with
        | Some f -> commit_fault t th f
        | None -> assert false);
        th.last_progress <- now t
      end;
      continue_ := false
    | Macro_ready last ->
      let ctx = th.ctx in
      let nuops = last + 1 in
      (* memory-ordering gate: a plain store to an address interlocked by
         another thread must wait for the release before committing *)
      let blocked_by_interlock =
        let rec chk i =
          if i > last then false
          else begin
            let e = Ring.get th.rob i in
            (e.uop.Uop.op = Uop.St
            && Interlock.locked_by_other t.interlock ~core:t.core_id
                 ~thread:th.tid ~paddr:e.paddr)
            || chk (i + 1)
          end
        in
        chk 0
      in
      if blocked_by_interlock then continue_ := false
      else begin
      let smc_flush = ref false in
      let assist_ran = ref false in
      let assist_fault = ref None in
      (try
         for i = 0 to last do
           let e = Ring.get th.rob i in
           Stats.incr t.c_uops;
           if !Trace.on then trace_uop t e Trace.Commit_uop;
           (match e.uop.Uop.op with
           | Uop.Ldl | Uop.Strel ->
             Interlock.trace t.interlock "%d: commit %s seq=%d th=%d acq=%b" (now t)
               (Uop.opcode_name e.uop.Uop.op) e.seq e.thread e.locked_acquired
           | _ -> ());
           (match e.uop.Uop.op with
           | Uop.Assist a ->
             Stats.incr t.c_assists;
             assist_ran := true;
             Assists.run t.env ctx e.uop a
           | _ ->
             if e.dest >= 0 && e.uop.Uop.rd <> Uop.reg_none then
               Context.set_reg ctx e.uop.Uop.rd e.result;
             if e.uop.Uop.setflags <> 0 then
               ctx.Context.flags <-
                 ctx.Context.flags land lnot Flags.cc_mask
                 lor (e.rflags land Flags.cc_mask);
             if Uop.is_store e.uop then begin
               Stats.incr t.c_stores;
               if commit_store t th e then smc_flush := true
             end;
             if Uop.is_load e.uop then Stats.incr t.c_loads;
             if Uop.is_branch e.uop then train_branch t e);
           release_old t e
         done
       with Fault.Guest_fault f ->
         (* an assist faulted (e.g. privileged op in user mode) *)
         assist_fault := Some f);
      (match !assist_fault with
      | Some f ->
        (* the assist's own instruction must not complete: deliver *)
        commit_fault t th f;
        th.last_progress <- now t;
        continue_ := false
      | None ->
        (* architectural RIP update *)
        let last_e = Ring.get th.rob last in
        if not !assist_ran then
          ctx.Context.rip <-
            (if Uop.is_branch last_e.uop && last_e.taken then last_e.target
             else last_e.uop.Uop.next_rip);
        (* remove the macro from ROB and LSQ *)
        let last_seq = last_e.seq in
        for _ = 0 to last do
          t.slots.((Ring.pop th.rob).handle) <- dummy_entry
        done;
        while
          (not (Ring.is_empty th.lsq)) && (Ring.get th.lsq 0).seq <= last_seq
        do
          ignore (Ring.pop th.lsq)
        done;
        Stats.incr t.c_insns;
        if !Trace.on then
          Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:last_e.uuid
            ~rip:last_e.uop.Uop.rip ~slot:nuops ~tag:t.prefix Trace.Commit;
        ctx.Context.insns_committed <- ctx.Context.insns_committed + 1;
        if t.config.Config.count_uop_triads then
          Stats.add t.c_triads ((nuops + 2) / 3);
        budget := !budget - nuops;
        th.last_progress <- now t;
        (* post-macro events, in priority order *)
        if !assist_ran then begin
          flush_thread t th ~rip:ctx.Context.rip;
          continue_ := false
        end
        else if !smc_flush then begin
          Stats.incr t.c_smc_flushes;
          flush_thread t th ~rip:ctx.Context.rip;
          continue_ := false
        end
        else if Context.interruptible ctx then begin
          Stats.incr t.c_irqs;
          ignore (Assists.try_deliver_irq t.env ctx);
          flush_thread t th ~rip:ctx.Context.rip;
          continue_ := false
        end;
        (* CR3 / invlpg effects *)
        if ctx.Context.tlb_generation <> th.tlb_gen_seen then begin
          th.tlb_gen_seen <- ctx.Context.tlb_generation;
          Tlb.flush t.dtlb;
          Tlb.flush t.itlb;
          Option.iter Pwc.flush t.pwc
        end)
      end
  done

(* ---------- the cycle loop ---------- *)

let count_mode_cycles t =
  let ctx = t.threads.(0).ctx in
  if not ctx.Context.running then Stats.incr t.c_idle_cycles
  else if Context.is_kernel ctx then Stats.incr t.c_kernel_cycles
  else Stats.incr t.c_user_cycles

let thread_idle th =
  (not th.ctx.Context.running) && Ring.is_empty th.rob && Ring.is_empty th.fetchq

(** Advance the core by one cycle (the driver owns env.cycle). *)
let step t =
  if !Trace.on then Trace.set_cycle (now t);
  Stats.incr t.c_cycles;
  count_mode_cycles t;
  Array.iter (fun th -> commit_thread t th) t.threads;
  writeback t;
  issue t;
  Array.iter (fun th -> rename_thread t th) t.threads;
  (* SMT fetch policy: one thread fetches per cycle, round-robin *)
  if Array.length t.threads = 1 then fetch_thread t t.threads.(0)
  else begin
    let n = Array.length t.threads in
    let tried = ref 0 in
    let fetched = ref false in
    while (not !fetched) && !tried < n do
      let th = t.threads.((t.fetch_round + !tried) mod n) in
      if th.ctx.Context.running || Option.is_some th.redirect then begin
        fetch_thread t th;
        fetched := true;
        t.fetch_round <- (t.fetch_round + !tried + 1) mod n
      end;
      incr tried
    done
  end;
  (* idle VCPUs waiting on interrupts *)
  Array.iter
    (fun th ->
      if thread_idle th && Context.interruptible th.ctx then begin
        Stats.incr t.c_irqs;
        ignore (Assists.try_deliver_irq t.env th.ctx);
        th.fetch_enabled <- true;
        th.redirect <- Some (now t + 1, To_rip th.ctx.Context.rip);
        th.last_progress <- now t
      end)
    t.threads;
  (* watchdog: a stuck pipeline is a simulator bug; fail loudly with a
     typed fault the guard supervisor / CLI driver can render *)
  Array.iter
    (fun th ->
      if
        (not (thread_idle th))
        && now t - th.last_progress > t.config.Config.watchdog_cycles
      then
        Sim_failure.fail ~stats:t.env.Env.stats
          ~subsystem:(t.prefix ^ ".watchdog")
          ~kind:Sim_failure.Lockup ~cycle:(now t) ~rip:th.ctx.Context.rip
          (Printf.sprintf "core %d thread %d: no commit since cycle %d"
             t.core_id th.tid th.last_progress))
    t.threads

let all_idle t = Array.for_all (fun th -> thread_idle th && not (Context.interruptible th.ctx)) t.threads

(** Standalone run loop for a single core: advances env.cycle itself.
    Stops when [max_cycles] elapse or every thread is idle with no
    pending interrupt (deadlock-free idle). *)
let run t ~max_cycles =
  let start = now t in
  let stop = ref false in
  while (not !stop) && now t - start < max_cycles do
    if all_idle t then stop := true
    else begin
      step t;
      t.env.Env.cycle <- t.env.Env.cycle + 1
    end
  done;
  now t - start

let insns t = Stats.value t.c_insns

(* ---------- guard inspection hooks ----------

   Small read-only views of the pipeline structures for the lib/guard
   invariant registry. They return plain data (or a violation string) so
   the guard does not have to re-derive pipeline semantics. All run
   between cycles, when the structures are consistent. *)

(* Allocation-free age scan: first out-of-order adjacent (prev, seq)
   pair in a ring of entries, or None. The guard sweep runs these every
   few dozen cycles, so they must not allocate. *)
let first_unordered ring =
  let prev = ref min_int and bad = ref None in
  Ring.iter ring (fun e ->
      if !bad = None && e.seq <= !prev then bad := Some (!prev, e.seq);
      prev := e.seq);
  !bad

(** ROB age ordering: per-thread sequence numbers must be strictly
    increasing oldest-to-youngest. Returns a violation, or None. *)
let guard_rob_order_check t =
  let bad = ref None in
  Array.iteri
    (fun tid th ->
      if !bad = None then
        match first_unordered th.rob with
        | Some (a, b) ->
          bad :=
            Some
              (Printf.sprintf "thread %d: seq %d precedes %d (age order broken)"
                 tid a b)
        | None -> ())
    t.threads;
  !bad

(** LSQ consistency: age-ordered, memory uops only, and every entry
    still present in its thread's ROB (a dangling LSQ entry survives its
    own annulment). Returns a violation, or None. *)
let guard_lsq_check t =
  let bad = ref None in
  Array.iteri
    (fun tid th ->
      if !bad = None then begin
        (match first_unordered th.lsq with
        | Some (a, b) ->
          bad := Some (Printf.sprintf "thread %d: seq %d precedes %d" tid a b)
        | None -> ());
        if !bad = None then begin
          (* membership via merge walk: both rings are age-ordered (just
             verified), so the LSQ must be a subsequence of the ROB —
             O(|ROB| + |LSQ|) instead of a quadratic scan *)
          let nr = Ring.length th.rob and nl = Ring.length th.lsq in
          let ri = ref 0 in
          (try
             for li = 0 to nl - 1 do
               let e = Ring.get th.lsq li in
               if not (Uop.is_mem e.uop) then begin
                 bad :=
                   Some
                     (Printf.sprintf "thread %d: LSQ seq %d is not a memory uop"
                        tid e.seq);
                 raise Exit
               end;
               while !ri < nr && not (Ring.get th.rob !ri == e) do
                 incr ri
               done;
               if !ri >= nr then begin
                 bad :=
                   Some
                     (Printf.sprintf "thread %d: LSQ seq %d has no ROB entry"
                        tid e.seq);
                 raise Exit
               end;
               incr ri
             done
           with Exit -> ())
        end
      end)
    t.threads;
  !bad

(** Visit every physical register the pipeline currently references:
    RAT mappings, in-flight destinations, and the old mappings held for
    commit-time release (sources are always a subset of these but are
    included for the dangling-reference check). *)
let guard_iter_referenced t f =
  let add i = if i >= 0 then f i in
  Array.iter
    (fun th ->
      Array.iter add th.rat;
      Ring.iter th.rob (fun e ->
          add e.dest;
          add e.dest_flags;
          add e.old_rd;
          add e.old_flags;
          add e.src_a;
          add e.src_b;
          add e.src_c;
          add e.src_f))
    t.threads

(* Source [k] of [e], as numbered in consumer-list nodes. *)
let source e k =
  match k with 0 -> e.src_a | 1 -> e.src_b | 2 -> e.src_c | _ -> e.src_f

(** Issue-queue consistency. Handles: each ROB entry's handle names its
    own ROB slot and maps back to it, an empty slot maps to no entry,
    and every handle in a ready set, a wheel bucket or a consumer list
    names an entry in the ROB (a stale handle is a violation). Slot
    conservation, both directions: each cluster's free-slot counter and
    per-thread counters equal a recount of the ROB entries claiming the
    cluster, and every claiming entry is Waiting. Wakeup: a queued
    entry's unready count equals its unwritten sources, it sits on each
    such source's consumer list (and every consumer-list node is such a
    source of such an entry), and it is in its cluster's ready set
    exactly when that count is zero; ready sets are in [seq] order and
    hold only Waiting, fully-written entries of that cluster.
    Completion: every wheel entry is Issued, in the bucket of its
    [wb_slot] at or after its writeback cycle and not yet drained, and
    the wheel holds exactly the Issued ROB entries. Returns a violation
    description, or None when consistent. *)
let guard_iq_check t =
  let violation = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  let nclusters = Array.length t.clusters and nthreads = Array.length t.threads in
  let nhandles = Array.length t.slots and rob_size = t.config.Config.rob_size in
  let nnodes = 4 * nhandles in
  (* handles of the entries in the ROB *)
  let live = Array.make nhandles false in
  Array.iter
    (fun th ->
      for i = 0 to Ring.length th.rob - 1 do
        let e = Ring.get th.rob i in
        let h = (th.tid * rob_size) + Ring.slot_of th.rob i in
        if e.handle <> h then
          note "thread %d: rob seq %d has handle %d but sits in slot %d" th.tid e.seq
            e.handle h
        else if t.slots.(h) != e then
          note "handle %d: rob seq %d is not the entry its handle names" h e.seq
        else live.(h) <- true
      done)
    t.threads;
  Array.iteri
    (fun h e ->
      if (not live.(h)) && e != dummy_entry then
        note "handle %d: empty ROB slot still names seq %d" h e.seq)
    t.slots;
  let is_live h = h >= 0 && h < nhandles && live.(h) in
  (* consumer lists: node -> the physreg whose list holds it *)
  let node_reg = Array.make nnodes (-1) in
  let consumers = ref 0 in
  Array.iteri
    (fun p first ->
      let node = ref first in
      while !node >= 0 do
        let n = !node in
        node := -1;
        if n >= nnodes then note "physreg %d: consumer node %d out of range" p n
        else if node_reg.(n) >= 0 then
          note "physreg %d: consumer node %d already listed under physreg %d" p n
            node_reg.(n)
        else begin
          node_reg.(n) <- p;
          incr consumers;
          let h = n lsr 2 in
          if not (is_live h) then note "physreg %d: stale consumer handle %d" p h
          else begin
            let e = t.slots.(h) in
            if Physreg.is_written t.prf p then
              note "physreg %d: written but seq %d still waits on it" p e.seq
            else if e.in_iq < 0 || not (is_waiting e) then
              note "physreg %d: consumer seq %d is not queued" p e.seq
            else if source e (n land 3) <> p then
              note "physreg %d: consumer seq %d source %d reads physreg %d" p e.seq
                (n land 3) (source e (n land 3))
          end;
          node := t.wnode_next.(n)
        end
      done)
    t.waiter_head;
  let claimed = Array.make nclusters 0 in
  let claimed_thread = Array.make (nclusters * nthreads) 0 in
  let ready_expected = Array.make nclusters 0 in
  let watched = ref 0 and issued = ref 0 in
  let in_ready c h =
    let n = ref 0 in
    for i = 0 to t.ready_len.(c) - 1 do
      if t.ready.(c).(i) = h then incr n
    done;
    !n
  in
  Array.iter
    (fun th ->
      Ring.iter th.rob (fun e ->
          (match e.state with Issued -> incr issued | _ -> ());
          if e.in_iq >= 0 then begin
            if e.in_iq >= nclusters then
              note "rob seq %d: in_iq=%d out of range" e.seq e.in_iq
            else begin
              let c = e.in_iq in
              claimed.(c) <- claimed.(c) + 1;
              let k = (c * nthreads) + e.thread in
              claimed_thread.(k) <- claimed_thread.(k) + 1;
              if not (is_waiting e) then
                note "iq[%d]: queued entry seq %d not in Waiting state" c e.seq;
              let pending = ref 0 in
              let check_src k =
                let p = source e k in
                if p >= 0 && not (Physreg.is_written t.prf p) then begin
                  incr pending;
                  let n = (e.handle * 4) + k in
                  if n < 0 || n >= nnodes || node_reg.(n) <> p then
                    note "iq[%d]: seq %d waits on physreg %d but is not its consumer"
                      c e.seq p
                end
              in
              check_src 0;
              check_src 1;
              check_src 2;
              if e.uop.Uop.readflags then check_src 3;
              if !pending <> e.unready then
                note "iq[%d]: seq %d has %d unwritten sources but unready=%d" c
                  e.seq !pending e.unready;
              watched := !watched + e.unready;
              let r = in_ready c e.handle in
              if e.unready = 0 then begin
                ready_expected.(c) <- ready_expected.(c) + 1;
                if r <> 1 then
                  note "iq[%d]: ready seq %d is %d times in the ready set" c e.seq r
              end
              else if r <> 0 then
                note "iq[%d]: seq %d in the ready set with %d unwritten sources" c
                  e.seq e.unready
            end
          end))
    t.threads;
  for c = 0 to nclusters - 1 do
    let size = t.clusters.(c).Config.iq_size in
    if t.iq_free.(c) <> size - claimed.(c) then
      note "iq[%d]: %d slots free but %d of %d claimed" c t.iq_free.(c) claimed.(c)
        size;
    for tid = 0 to nthreads - 1 do
      let k = (c * nthreads) + tid in
      if t.iq_thread.(k) <> claimed_thread.(k) then
        note "iq[%d]: thread %d counts %d entries but %d claim a slot" c tid
          t.iq_thread.(k) claimed_thread.(k)
    done;
    let prev = ref min_int in
    for i = 0 to t.ready_len.(c) - 1 do
      let h = t.ready.(c).(i) in
      if not (is_live h) then note "iq[%d]: stale handle %d in the ready set" c h
      else begin
        let e = t.slots.(h) in
        if not (is_waiting e) then
          note "iq[%d]: ready-set seq %d not in Waiting state" c e.seq
        else if e.in_iq <> c then
          note "iq[%d]: ready-set seq %d claims cluster %d" c e.seq e.in_iq
        else if e.unready <> 0 then
          note "iq[%d]: ready-set seq %d has unready=%d" c e.seq e.unready
        else if e.seq <= !prev then
          note "iq[%d]: ready set out of seq order at %d" c e.seq;
        prev := e.seq
      end
    done;
    if t.ready_len.(c) <> ready_expected.(c) then
      note "iq[%d]: ready set holds %d entries but %d are ready" c t.ready_len.(c)
        ready_expected.(c)
  done;
  if !consumers <> !watched then
    note "consumer lists hold %d entries but queued entries wait on %d" !consumers
      !watched;
  let in_wheel = ref 0 and seen = Array.make nhandles false in
  Array.iteri
    (fun b first ->
      let node = ref first in
      while !node >= 0 do
        let h = !node in
        node := -1;
        if not (is_live h) then note "wheel[%d]: stale handle %d" b h
        else if seen.(h) then note "wheel[%d]: handle %d listed twice" b h
        else begin
          seen.(h) <- true;
          incr in_wheel;
          let e = t.slots.(h) in
          (match e.state with
          | Issued ->
            if e.wb_slot land wheel_mask <> b then
              note "wheel[%d]: seq %d belongs in bucket %d" b e.seq
                (e.wb_slot land wheel_mask)
            else if e.writeback_cycle > e.wb_slot then
              note "wheel[%d]: seq %d writes back at %d after its slot %d" b e.seq
                e.writeback_cycle e.wb_slot
            else if e.wb_slot <= t.wheel_done then
              note "wheel[%d]: seq %d slot %d already drained (at %d)" b e.seq
                e.wb_slot t.wheel_done
          | _ -> note "wheel[%d]: seq %d is not Issued" b e.seq);
          node := t.wheel_next.(h)
        end
      done)
    t.wheel;
  if !in_wheel <> !issued then
    note "wheel holds %d entries but %d ROB entries are Issued" !in_wheel !issued;
  !violation

(** Locks still held with every thread idle are leaked interlocks. *)
let guard_interlock_check t =
  if all_idle t && Interlock.count t.interlock > 0 then
    Some
      (Printf.sprintf "%d interlock(s) held with all threads idle"
         (Interlock.count t.interlock))
  else None
