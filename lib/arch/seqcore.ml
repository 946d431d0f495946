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
module Exec = Ptl_uop.Exec
module Bbcache = Ptl_uop.Bbcache

(* The macro-op buffer: this instruction's register writes and stores,
   oldest first, searched newest-first and committed oldest-first. Each
   uop of an instruction runs at most once, so [Microcode.max_uops]
   entries hold any instruction's effects. *)
type buffer = {
  rw_reg : int array;
  rw_val : Bytes.t;  (* 8 bytes per entry of [rw_reg] *)
  mutable n_rw : int;
  st_addr : Bytes.t;
  st_val : Bytes.t;
  st_size : W64.size array;
  mutable n_st : int;
  mutable flags : int;  (* the flags word as of the last executed uop *)
}

let buffer_slots = Ptl_uop.Microcode.max_uops

let create_buffer () =
  {
    rw_reg = Array.make buffer_slots Uop.reg_none;
    rw_val = Bytes.create (8 * buffer_slots);
    n_rw = 0;
    st_addr = Bytes.create (8 * buffer_slots);
    st_val = Bytes.create (8 * buffer_slots);
    st_size = Array.make buffer_slots W64.B8;
    n_st = 0;
    flags = 0;
  }

type t = {
  env : Env.t;
  ctx : Context.t;
  prefix : string;  (* stats / trace namespace, e.g. "seq", "native" *)
  bbcache : Bbcache.t;
  mutable monitor : Monitor.t option;
  buf : buffer;
  (* instruction fetch for the block decoder, built once per core: a
     block is looked up with ctx.rip at its start, which is the [at_rip]
     a fetch fault reports *)
  fetch : int64 -> int;
  mfn_of : int64 -> int;
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
    bbcache = Bbcache.create ?max_insns:max_bb_insns env.Env.stats;
    monitor = None;
    buf = create_buffer ();
    fetch =
      (fun vaddr ->
        Vmem.fetch_byte env.Env.vmem ctx ~at_rip:ctx.Context.rip vaddr);
    mfn_of =
      (fun vaddr -> Vmem.code_mfn env.Env.vmem ctx ~at_rip:ctx.Context.rip vaddr);
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

let overflow () = invalid_arg "Seqcore: macro-op buffer overflow"

let read_reg t r =
  if r = Uop.reg_none then 0L
  else if r = Uop.reg_flags then Int64.of_int t.buf.flags
  else begin
    let b = t.buf in
    let k = ref (b.n_rw - 1) in
    while !k >= 0 && Array.unsafe_get b.rw_reg !k <> r do
      decr k
    done;
    if !k >= 0 then Bytes.get_int64_le b.rw_val (!k * 8)
    else Context.get_reg t.ctx r
  end

let buffer_reg b r v =
  if r <> Uop.reg_none then begin
    let k = b.n_rw in
    if k = buffer_slots then overflow ();
    b.rw_reg.(k) <- r;
    Bytes.set_int64_le b.rw_val (k * 8) v;
    b.n_rw <- k + 1
  end

let buffer_store b vaddr size v =
  let k = b.n_st in
  if k = buffer_slots then overflow ();
  Bytes.set_int64_le b.st_addr (k * 8) vaddr;
  Bytes.set_int64_le b.st_val (k * 8) v;
  b.st_size.(k) <- size;
  b.n_st <- k + 1

(* The newest buffered store a load can take its value from, or -1.
   Loads see this macro-op's earlier stores only on exact address+size
   match (our microcode never generates partial overlap within one
   instruction). *)
let forwarding_store b vaddr size =
  let k = ref (b.n_st - 1) in
  while
    !k >= 0
    && not
         (Array.unsafe_get b.st_size !k = size
         && Int64.equal (Bytes.get_int64_le b.st_addr (!k * 8)) vaddr)
  do
    decr k
  done;
  !k

let commit_macro t =
  let b = t.buf and ctx = t.ctx in
  for k = 0 to b.n_rw - 1 do
    Context.set_reg ctx b.rw_reg.(k) (Bytes.get_int64_le b.rw_val (k * 8))
  done;
  ctx.Context.flags <- b.flags;
  (* commit stores, with SMC detection on code pages: the store's own
     translation names the frame to check *)
  for k = 0 to b.n_st - 1 do
    let paddr =
      Vmem.store t.env.Env.vmem ctx
        ~vaddr:(Bytes.get_int64_le b.st_addr (k * 8))
        ~size:b.st_size.(k)
        ~value:(Bytes.get_int64_le b.st_val (k * 8))
        ~at_rip:ctx.Context.rip
    in
    ignore (Bbcache.store_committed t.bbcache (Pm.mfn_of_paddr paddr))
  done;
  ctx.Context.insns_committed <- ctx.Context.insns_committed + 1;
  Stats.incr t.c_insns;
  if !Trace.on then
    Trace.emit ~uuid:ctx.Context.insns_committed ~rip:ctx.Context.rip
      ~tag:t.prefix Trace.Commit;
  match t.monitor with Some m -> Monitor.insn m | None -> ()

(* Execute the uops of one macro-op (one x86 instruction), starting at
   index [i] of [uops]. Returns the index of the next macro-op's first
   uop, or -1 after a taken branch or an assist redirected [rip]; either
   way the instruction committed. A fault raises [Fault.Guest_fault] (or
   [Exec.Divide_error]) with nothing committed. *)
let exec_macro t (uops : Uop.t array) i =
  let ctx = t.ctx and b = t.buf in
  b.n_rw <- 0;
  b.n_st <- 0;
  b.flags <- ctx.Context.flags;
  let i = ref i in
  (* -2 while the macro-op is still executing *)
  let next = ref (-2) in
  while !next = -2 do
    let u = uops.(!i) in
    Stats.incr t.c_uops;
    (match u.Uop.op with
    | Uop.Assist a ->
      (* assists commit the buffered state first, then run serialized *)
      commit_macro t;
      Stats.incr t.c_assists;
      Assists.run t.env ctx u a;
      next := -1
    | _ ->
      let ra = read_reg t u.Uop.ra in
      let rb = read_reg t u.Uop.rb in
      let rc = read_reg t u.Uop.rc in
      let out = Exec.execute u ~ra ~rb ~rc ~flags:b.flags in
      b.flags <- out.Exec.flags;
      if Uop.is_load u then begin
        Stats.incr t.c_loads;
        let vaddr = out.Exec.value in
        (match t.monitor with Some m -> Monitor.load m ~vaddr | None -> ());
        let k = forwarding_store b vaddr u.Uop.mem_size in
        let raw =
          if k >= 0 then Bytes.get_int64_le b.st_val (k * 8)
          else Vmem.read t.env.Env.vmem ctx ~vaddr ~size:u.Uop.mem_size ~at_rip:u.Uop.rip
        in
        buffer_reg b u.Uop.rd (Exec.finish_load u raw)
      end
      else if Uop.is_store u then begin
        Stats.incr t.c_stores;
        let vaddr = out.Exec.value in
        (match t.monitor with Some m -> Monitor.store m ~vaddr | None -> ());
        (* fault check now, so the whole instruction discards on fault *)
        ignore
          (Vmem.translate t.env.Env.vmem ctx ~vaddr ~write:true ~fetch:false
             ~at_rip:u.Uop.rip);
        buffer_store b vaddr u.Uop.mem_size (Exec.store_data u rc)
      end
      else if Uop.is_branch u then begin
        Stats.incr t.c_branches;
        (match t.monitor with
        | Some m -> Monitor.branch m u ~taken:out.Exec.taken ~target:out.Exec.target
        | None -> ());
        if out.Exec.taken then begin
          Stats.incr t.c_taken;
          (* a taken branch ends its macro-op even mid-microcode *)
          commit_macro t;
          ctx.Context.rip <- out.Exec.target;
          next := -1
        end
      end
      else buffer_reg b u.Uop.rd out.Exec.value);
    if !next = -2 then
      if u.Uop.eom then begin
        commit_macro t;
        ctx.Context.rip <- u.Uop.next_rip;
        next := !i + 1
      end
      else incr i
  done;
  !next

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
    let executed = ref 0 in
    (try
       let bb =
         Bbcache.lookup t.bbcache ~rip:ctx.Context.rip ~kernel:(Context.is_kernel ctx)
           ~fetch:t.fetch ~mfn_of:t.mfn_of
       in
       let uops = bb.Bbcache.uops in
       let i = ref 0 in
       while !i >= 0 && !i < Array.length uops do
         i := exec_macro t uops !i;
         incr executed
       done
     with
     | Fault.Guest_fault f ->
       Stats.incr t.c_faults;
       Assists.deliver_fault t.env ctx f
     | Exec.Divide_error ->
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
