(** Microarchitectural models driven by the functional core's events.

    {!Seqcore} reports each load, store, branch and committed instruction
    to at most one monitor, through direct calls to the functions below.
    A monitor feeds the caches, TLBs, page-walk cache and branch predictor
    of one core model in one of two modes:

    - [Timed]: the in-order timed core. Accesses go through the counted
      lookups, a TLB miss walks the page table with blocking loads, and
      every event charges cycles to an accumulator the core drains once
      per block.
    - [Warm]: the sampler's functional warming. TLB fills fall back to a
      silent page walk (a faulting access warms nothing: the functional
      core raises the real fault itself), caches are touched through the
      [warm_*] entry points and branches train the direction tables, BTB
      and RAS. No statistics counter moves and no trace event is emitted.
      Consecutive accesses to the same 64-byte line are warmed once: a
      repeat leaves every warmed structure in the same state (the line
      stays most-recently-used), so skipping it loses nothing but
      sub-line LRU-stamp precision. *)

module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Predictor = Ptl_bpred.Predictor
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace
module Uop = Ptl_uop.Uop

(* the timed core's per-instruction mode counters *)
type mode = Timed of { c_kernel : Stats.counter; c_user : Stats.counter } | Warm

type t = {
  mode : mode;
  env : Env.t;
  ctx : Context.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  hugepages : bool;
  bpred : Predictor.t;
  (* Timed: cycles charged since the last {!take_cycles} *)
  mutable cycles : int;
  (* Warm: the TLB generation last flushed at, and the 1-entry line memos
     of instruction fetch, loads and stores (-1 never matches a line) *)
  mutable tlb_gen_seen : int;
  mutable last_iline : int;
  mutable last_lline : int;
  mutable last_sline : int;
}

let make mode ~env ~ctx ~hierarchy ~dtlb ~itlb ~pwc ~hugepages ~bpred =
  {
    mode;
    env;
    ctx;
    hierarchy;
    dtlb;
    itlb;
    pwc;
    hugepages;
    bpred;
    cycles = 0;
    tlb_gen_seen = ctx.Context.tlb_generation;
    last_iline = -1;
    last_lline = -1;
    last_sline = -1;
  }

let timed ~env ~ctx ~hierarchy ~dtlb ~itlb ~pwc ~hugepages ~bpred ~c_kernel
    ~c_user =
  make (Timed { c_kernel; c_user }) ~env ~ctx ~hierarchy ~dtlb ~itlb ~pwc
    ~hugepages ~bpred

let warm = make Warm

let take_cycles m =
  let c = m.cycles in
  m.cycles <- 0;
  c

let reset_memos m =
  m.last_iline <- -1;
  m.last_lline <- -1;
  m.last_sline <- -1

let[@inline] charge m n = m.cycles <- m.cycles + n
let[@inline] line_of vaddr = Int64.to_int (Int64.shift_right_logical vaddr 6)

(* A TLB entry for a successful walk, demoted to a 4K entry when the
   model has no huge-page TLB entries. *)
let tlb_entry m (tr : Pt.translation) =
  let e = Tlb.entry_of_walk tr in
  if e.Tlb.huge && not m.hugepages then { e with Tlb.huge = false; mfn = tr.Pt.mfn }
  else e

(* Timed data translation: counted TLB lookup, and on a miss a blocking
   page walk whose dependent loads the PWC shortens. Returns the physical
   address, or -1 when the walk faults. *)
let[@inline never] timed_translate m ~vaddr ~write =
  match Tlb.lookup m.dtlb vaddr with
  | Tlb.L1_hit e | Tlb.L2_hit e -> Tlb.paddr_of e vaddr
  | Tlb.Tlb_miss -> (
    let ctx = m.ctx in
    match
      Pt.walk m.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write
        ~user:(ctx.Context.mode = Context.User) ~exec:false ~set_ad:false ()
    with
    | Error _ -> -1
    | Ok tr ->
      Tlb.insert m.dtlb vaddr (tlb_entry m tr);
      let addrs = tr.Pt.pte_addrs in
      let loads =
        match m.pwc with
        | None -> List.length addrs
        | Some pwc ->
          let left = Pwc.loads_left pwc vaddr ~walk_len:(List.length addrs) in
          Pwc.insert pwc vaddr ~pte_addrs:addrs;
          left
      in
      let drop = List.length addrs - loads in
      List.iteri
        (fun i pa ->
          if i >= drop then
            charge m (Hierarchy.load m.hierarchy ~cycle:m.env.Env.cycle ~paddr:pa))
        addrs;
      Pt.to_paddr tr vaddr)

(* Warming translation: silent TLB lookup, and on a miss a silent walk
   that fills the TLB and warms the page-walk caches exactly as the timed
   walk would. Returns -1 when the walk faults. *)
let[@inline never] warm_translate m tlb ~vaddr ~write ~exec =
  match Tlb.lookup_quiet tlb vaddr with
  | Tlb.L1_hit e | Tlb.L2_hit e -> Tlb.paddr_of e vaddr
  | Tlb.Tlb_miss -> (
    let ctx = m.ctx in
    match
      Pt.walk m.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write
        ~user:(ctx.Context.mode = Context.User) ~exec ~set_ad:false ()
    with
    | Error _ -> -1
    | Ok tr ->
      Tlb.insert tlb vaddr (tlb_entry m tr);
      (match m.pwc with
      | Some pwc ->
        ignore (Pwc.lookup_quiet pwc vaddr);
        Pwc.insert pwc vaddr ~pte_addrs:tr.Pt.pte_addrs
      | None -> ());
      Pm.paddr_of_mfn tr.Pt.mfn
      + Int64.to_int (Int64.logand vaddr (Int64.of_int Pm.page_mask)))

(* Warming flushes its TLBs when the context's TLB generation moves
   (CR3 writes, invlpg), and forgets its line memos with them. *)
let[@inline never] flush_gen m =
  m.tlb_gen_seen <- m.ctx.Context.tlb_generation;
  Tlb.flush m.dtlb;
  Tlb.flush m.itlb;
  Option.iter Pwc.flush m.pwc;
  reset_memos m

let[@inline] check_gen m =
  if m.ctx.Context.tlb_generation <> m.tlb_gen_seen then flush_gen m

let load m ~vaddr =
  match m.mode with
  | Timed _ ->
    let paddr = timed_translate m ~vaddr ~write:false in
    if paddr >= 0 then
      charge m (Hierarchy.load m.hierarchy ~cycle:m.env.Env.cycle ~paddr)
  | Warm ->
    check_gen m;
    let line = line_of vaddr in
    if line <> m.last_lline then begin
      m.last_lline <- line;
      let paddr = warm_translate m m.dtlb ~vaddr ~write:false ~exec:false in
      if paddr >= 0 then Hierarchy.warm_load m.hierarchy ~paddr
    end

let store m ~vaddr =
  match m.mode with
  | Timed _ ->
    let paddr = timed_translate m ~vaddr ~write:true in
    if paddr >= 0 then
      charge m (Hierarchy.store m.hierarchy ~cycle:m.env.Env.cycle ~paddr)
  | Warm ->
    check_gen m;
    let line = line_of vaddr in
    if line <> m.last_sline then begin
      m.last_sline <- line;
      let paddr = warm_translate m m.dtlb ~vaddr ~write:true ~exec:false in
      if paddr >= 0 then Hierarchy.warm_store m.hierarchy ~paddr
    end

let branch m (u : Uop.t) ~taken ~target =
  let rip = u.Uop.rip in
  let conditional =
    match u.Uop.op with Uop.Brc _ | Uop.Brnz | Uop.Brz -> true | _ -> false
  in
  match m.mode with
  | Timed _ ->
    if conditional then begin
      let pred = Predictor.predict_cond m.bpred ~rip in
      let mispredicted = pred <> taken in
      Predictor.update_cond m.bpred ~rip ~taken ~mispredicted;
      if mispredicted then begin
        if !Trace.on then
          Trace.emit ~rip ~info:target
            ~tag:(if taken then "taken" else "nt")
            Trace.Mispredict;
        charge m 8
      end
    end
    else begin
      (* indirect/direct: BTB-checked *)
      match Predictor.predict_target m.bpred ~rip with
      | Some p when p = target -> ()
      | _ ->
        Predictor.update_target m.bpred ~rip ~target;
        if !Trace.on then Trace.emit ~rip ~info:target ~tag:"btb" Trace.Mispredict;
        charge m 8
    end
  | Warm ->
    if conditional then Predictor.warm_cond m.bpred ~rip ~taken;
    if taken && target <> 0L then Predictor.warm_target m.bpred ~rip ~target;
    Predictor.warm_ras m.bpred ~call:u.Uop.hint_call ~ret:u.Uop.hint_ret
      ~next_rip:u.Uop.next_rip

let insn m =
  match m.mode with
  | Timed { c_kernel; c_user } ->
    (* base CPI of 1 *)
    charge m 1;
    if Context.is_kernel m.ctx then Stats.incr c_kernel else Stats.incr c_user
  | Warm ->
    check_gen m;
    let rip = m.ctx.Context.rip in
    let line = line_of rip in
    if line <> m.last_iline then begin
      m.last_iline <- line;
      let paddr = warm_translate m m.itlb ~vaddr:rip ~write:false ~exec:true in
      if paddr >= 0 then Hierarchy.warm_ifetch m.hierarchy ~paddr
    end
