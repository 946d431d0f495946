(** The sequential functional core.

    Executes uops in program order with no timing model. It serves three of
    the paper's roles at once: the in-order core "used for rapid testing
    and microcode debugging" (§2.2), the functional reference that the
    cycle-accurate cores are validated against in lockstep co-simulation
    (§2.3 / TFSim discussion in §6.3), and — run at a calibrated
    instructions-per-cycle rate — the *native mode* executor that stands in
    for running the domain on the host's physical CPUs.

    x86 instruction atomicity is enforced by buffering register, flag and
    store effects per macro-op and applying them only when the final uop
    (EOM or a taken branch) completes; a fault anywhere in the instruction
    discards the buffers, so delivered exceptions are precise. *)

open Ptl_util
module Uop = Ptl_uop.Uop
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace
module Pm = Ptl_mem.Phys_mem

(** Optional per-event callbacks, used by timing monitors layered on the
    functional core (the in-order timed core, perfctr-style functional
    cache/predictor models, trace collectors). *)
type hooks = {
  h_load : vaddr:int64 -> rip:int64 -> unit;
  h_store : vaddr:int64 -> rip:int64 -> unit;
  h_branch :
    rip:int64 ->
    taken:bool ->
    target:int64 ->
    conditional:bool ->
    call:bool ->
    ret:bool ->
    next_rip:int64 ->
    unit;
      (** [call]/[ret] carry the decoder's branch hints (RAS warming);
          [next_rip] is the fall-through address (the return address a
          call would push). *)
  h_insn : rip:int64 -> kernel:bool -> unit;  (* after each macro commit *)
}

type t = {
  env : Env.t;
  ctx : Context.t;
  prefix : string;  (* stats / trace namespace, e.g. "seq", "native" *)
  bbcache : Ptl_uop.Bbcache.t;
  mutable hooks : hooks option;
  c_insns : Stats.counter;
  c_uops : Stats.counter;
  c_loads : Stats.counter;
  c_stores : Stats.counter;
  c_branches : Stats.counter;
  c_taken : Stats.counter;
  c_assists : Stats.counter;
  c_faults : Stats.counter;
  c_irqs : Stats.counter;
}

let create ?(prefix = "seq") ?max_bb_insns env ctx =
  let c suffix = Stats.counter env.Env.stats (prefix ^ "." ^ suffix) in
  {
    env;
    ctx;
    prefix;
    bbcache = Ptl_uop.Bbcache.create ?max_insns:max_bb_insns env.Env.stats;
    hooks = None;
    c_insns = c "insns";
    c_uops = c "uops";
    c_loads = c "loads";
    c_stores = c "stores";
    c_branches = c "branches";
    c_taken = c "taken_branches";
    c_assists = c "assists";
    c_faults = c "faults";
    c_irqs = c "irqs";
  }

type status =
  | Executed of int  (* instructions committed in this step *)
  | Idle  (* VCPU halted, waiting for an interrupt *)
  | Interrupted  (* an external interrupt was delivered *)

(* Per-macro-op speculative state. *)
type macro_state = {
  mutable reg_writes : (int * int64) list;  (* newest first *)
  mutable store_writes : (int64 * W64.size * int64) list;  (* newest first *)
  mutable cur_flags : int;
}

let read_reg ms ctx r =
  if r = Uop.reg_none then 0L
  else if r = Uop.reg_flags then Int64.of_int ms.cur_flags
  else
    match List.assoc_opt r ms.reg_writes with
    | Some v -> v
    | None -> Context.get_reg ctx r

let buffer_reg ms r v = if r <> Uop.reg_none then ms.reg_writes <- (r, v) :: ms.reg_writes

(* Loads see this macro-op's earlier stores only on exact address+size
   match (our microcode never generates partial overlap within one
   instruction). *)
let buffered_load ms vaddr size =
  List.find_map
    (fun (a, s, v) -> if a = vaddr && s = size then Some v else None)
    ms.store_writes

let commit_macro t ms =
  List.iter (fun (r, v) -> Context.set_reg t.ctx r v) (List.rev ms.reg_writes);
  t.ctx.Context.flags <- ms.cur_flags;
  (* commit stores, with SMC detection on code pages *)
  List.iter
    (fun (vaddr, size, value) ->
      Vmem.write t.env.Env.vmem t.ctx ~vaddr ~size ~value ~at_rip:t.ctx.Context.rip;
      let paddr =
        Vmem.translate t.env.Env.vmem t.ctx ~vaddr ~write:true ~fetch:false
          ~at_rip:t.ctx.Context.rip
      in
      ignore (Ptl_uop.Bbcache.store_committed t.bbcache (Pm.mfn_of_paddr paddr)))
    (List.rev ms.store_writes);
  t.ctx.Context.insns_committed <- t.ctx.Context.insns_committed + 1;
  Stats.incr t.c_insns;
  if !Trace.on then
    Trace.emit ~uuid:t.ctx.Context.insns_committed ~rip:t.ctx.Context.rip
      ~tag:t.prefix Trace.Commit;
  match t.hooks with
  | Some h -> h.h_insn ~rip:t.ctx.Context.rip ~kernel:(Context.is_kernel t.ctx)
  | None -> ()

(* Execute the uops of one macro-op (one x86 instruction), starting at
   index [i] of [uops]. Returns [`Fallthrough j] (next uop index),
   [`Redirect rip] (taken branch / assist redirect) — in both cases the
   instruction committed — or raises [Fault.Guest_fault]. *)
let exec_macro t uops i =
  let ctx = t.ctx in
  let ms = { reg_writes = []; store_writes = []; cur_flags = ctx.Context.flags } in
  let finish_insn (u : Uop.t) i =
    if u.Uop.eom then begin
      commit_macro t ms;
      ctx.Context.rip <- u.Uop.next_rip;
      `Fallthrough (i + 1)
    end
    else `Continue
  in
  let rec go i =
    let u = uops.(i) in
    Stats.incr t.c_uops;
    match u.Uop.op with
    | Uop.Assist a ->
      (* assists commit the buffered state first, then run serialized *)
      commit_macro t ms;
      Stats.incr t.c_assists;
      Assists.run t.env ctx u a;
      `Redirect ctx.Context.rip
    | _ ->
      let at_rip = u.Uop.rip in
      let ra = read_reg ms ctx u.Uop.ra in
      let rb = read_reg ms ctx u.Uop.rb in
      let rc = read_reg ms ctx u.Uop.rc in
      let out = Ptl_uop.Exec.execute u ~ra ~rb ~rc ~flags:ms.cur_flags in
      ms.cur_flags <- out.Ptl_uop.Exec.flags;
      if Uop.is_load u then begin
        Stats.incr t.c_loads;
        let vaddr = out.Ptl_uop.Exec.value in
        (match t.hooks with
        | Some h -> h.h_load ~vaddr ~rip:at_rip
        | None -> ());
        let raw =
          match buffered_load ms vaddr u.Uop.mem_size with
          | Some v -> v
          | None -> Vmem.read t.env.Env.vmem ctx ~vaddr ~size:u.Uop.mem_size ~at_rip
        in
        buffer_reg ms u.Uop.rd (Ptl_uop.Exec.finish_load u raw);
        match finish_insn u i with `Continue -> go (i + 1) | r -> r
      end
      else if Uop.is_store u then begin
        Stats.incr t.c_stores;
        let vaddr = out.Ptl_uop.Exec.value in
        (match t.hooks with
        | Some h -> h.h_store ~vaddr ~rip:at_rip
        | None -> ());
        (* fault check now, so the whole instruction discards on fault *)
        ignore
          (Vmem.translate t.env.Env.vmem ctx ~vaddr ~write:true ~fetch:false ~at_rip);
        ms.store_writes <-
          (vaddr, u.Uop.mem_size, Ptl_uop.Exec.store_data u rc) :: ms.store_writes;
        match finish_insn u i with `Continue -> go (i + 1) | r -> r
      end
      else if Uop.is_branch u then begin
        Stats.incr t.c_branches;
        (match t.hooks with
        | Some h ->
          let conditional =
            match u.Uop.op with
            | Uop.Brc _ | Uop.Brnz | Uop.Brz -> true
            | _ -> false
          in
          h.h_branch ~rip:at_rip ~taken:out.Ptl_uop.Exec.taken
            ~target:out.Ptl_uop.Exec.target ~conditional
            ~call:u.Uop.hint_call ~ret:u.Uop.hint_ret ~next_rip:u.Uop.next_rip
        | None -> ());
        if out.Ptl_uop.Exec.taken then begin
          Stats.incr t.c_taken;
          (* a taken branch ends its macro-op even mid-microcode *)
          commit_macro t ms;
          ctx.Context.rip <- out.Ptl_uop.Exec.target;
          `Redirect out.Ptl_uop.Exec.target
        end
        else
          match finish_insn u i with `Continue -> go (i + 1) | r -> r
      end
      else begin
        buffer_reg ms u.Uop.rd out.Ptl_uop.Exec.value;
        match finish_insn u i with `Continue -> go (i + 1) | r -> r
      end
  in
  go i

let fetch_fn t ~at_rip vaddr = Vmem.fetch_byte t.env.Env.vmem t.ctx ~at_rip vaddr
let mfn_fn t ~at_rip vaddr = Vmem.code_mfn t.env.Env.vmem t.ctx ~at_rip vaddr

(** Execute one basic block's worth of instructions (or deliver one pending
    interrupt, or report the VCPU idle). Interrupts are sampled at block
    boundaries; blocks are bounded (16 instructions), so delivery latency
    is bounded and deterministic. *)
let step_block t : status =
  if !Trace.on then Trace.set_cycle t.env.Env.cycle;
  let ctx = t.ctx in
  if not ctx.Context.running then
    if Assists.try_deliver_irq t.env ctx then begin
      Stats.incr t.c_irqs;
      Interrupted
    end
    else Idle
  else if Assists.try_deliver_irq t.env ctx then begin
    Stats.incr t.c_irqs;
    Interrupted
  end
  else begin
    let rip = ctx.Context.rip in
    let executed = ref 0 in
    (try
       let bb =
         Ptl_uop.Bbcache.lookup t.bbcache ~rip ~kernel:(Context.is_kernel ctx)
           ~fetch:(fetch_fn t ~at_rip:rip)
           ~mfn_of:(mfn_fn t ~at_rip:rip)
       in
       let rec loop i =
         if i < Array.length bb.Ptl_uop.Bbcache.uops then
           match exec_macro t bb.Ptl_uop.Bbcache.uops i with
           | `Fallthrough j ->
             incr executed;
             loop j
           | `Redirect _ -> incr executed
           | `Continue -> assert false
       in
       loop 0
     with
     | Fault.Guest_fault f ->
       Stats.incr t.c_faults;
       Assists.deliver_fault t.env ctx f
     | Ptl_uop.Exec.Divide_error ->
       (* the divide uop faults before its macro commits, so ctx.rip is
          still the faulting instruction (the OOO core does the same via
          its Faulted completion state) *)
       Stats.incr t.c_faults;
       Assists.deliver_fault t.env ctx
         { Fault.kind = Fault.Divide_error; at_rip = ctx.Context.rip });
    Executed !executed
  end

(** Run until [max_insns] instructions have committed or the VCPU goes
    idle with no interrupt pending. Returns the number committed. This is
    the native-mode execution loop: the caller advances simulated time at
    the calibrated native IPC rate. *)
let run t ~max_insns =
  let total = ref 0 in
  let stop = ref false in
  while (not !stop) && !total < max_insns do
    match step_block t with
    | Executed n -> if n = 0 then stop := true else total := !total + n
    | Interrupted -> ()
    | Idle -> stop := true
  done;
  !total

let insns t = Stats.value t.c_insns
