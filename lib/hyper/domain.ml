(** A domain: one guest virtual machine under the PTLsim/X-style monitor.

    The domain owns the environment (physical memory, virtualized time),
    the VCPU context, optionally a minios kernel instance, and the two
    execution engines the paper's co-simulation design requires (§2.3):

    - *native mode*: the fast functional core standing in for "executing
      at full speed on the host's physical x86 processors", advancing
      virtual time at a calibrated native IPC;
    - *simulation mode*: any registered cycle-accurate core model.

    Transitions are seamless: both engines share the context and the
    single virtual clock, so rdtsc never observes a gap — the effect the
    paper achieves by virtualizing the TSC across switches (§4.1).
    Commands arrive via the guest [ptlcall] instruction as command lists
    ("-core ooo -run -stopinsns 10m : -native"), via {!Ptlcall}. *)

module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Seqcore = Ptl_arch.Seqcore
module Registry = Ptl_ooo.Registry
module Config = Ptl_ooo.Config
module Kernel = Ptl_kernel.Kernel
module Stats = Ptl_stats.Statstree
module Timelapse = Ptl_stats.Timelapse
module Vmem = Ptl_arch.Vmem

type mode = Native | Simulating

type t = {
  env : Env.t;
  ctx : Context.t;
  kernel : Kernel.t option;
  config : Config.t;
  mutable core_name : string;
  mutable mode : mode;
  mutable sim : Registry.instance option;
  (* decorator applied to every freshly built core instance (the guard
     supervisor installs itself here; identity when unset) *)
  mutable instance_wrap : (Registry.instance -> Registry.instance) option;
  (* shared long-lived microarch state threaded into every core build
     (the sampling supervisor installs one so caches/TLBs/predictor
     survive mode switches; None = each instance builds its own) *)
  mutable uarch : Ptl_ooo.Uarch.t option;
  (* region-of-interest gate toggled by the guest's -startsample /
     -stopsample ptlcalls; read by the sampling supervisor *)
  mutable sample_roi : bool;
  native : Seqcore.t;
  (* native-mode clock: cycles advance by insns * num / den (default
     2/3 cycles per instruction = IPC 1.5, roughly the K8 on rsync) *)
  native_cpi_num : int;
  native_cpi_den : int;
  mutable native_frac : int;
  mutable pending : Ptlcall.command list;
  mutable stop_insns : int option;  (* absolute committed-insn target *)
  mutable stop_cycles : int option;
  mutable stop_rip : int64 option;
  mutable stop_marker : int option;
  mutable marker_hit : bool;
  mutable run_active : bool;  (* a -run phase is executing; queue is parked *)
  mutable killed : bool;
  mutable timelapse : Timelapse.t option;
  mutable markers : (int * int) list;  (* (marker, cycle), newest first *)
  c_mode_switches : Stats.counter;
  c_user : Stats.counter;
  c_kernel : Stats.counter;
  c_idle : Stats.counter;
  c_cycles : Stats.counter;
  c_native_insns : Stats.counter;
}

let create ?kernel ?(core = "ooo") ?(native_cpi = (2, 3)) ~config env ctx =
  let stats = env.Env.stats in
  let num, den = native_cpi in
  let t =
    {
      env;
      ctx;
      kernel;
      config;
      core_name = core;
      mode = Native;
      sim = None;
      instance_wrap = None;
      uarch = None;
      sample_roi = false;
      native = Seqcore.create ~prefix:"native" env ctx;
      native_cpi_num = num;
      native_cpi_den = den;
      native_frac = 0;
      pending = [];
      stop_insns = None;
      stop_cycles = None;
      stop_rip = None;
      stop_marker = None;
      marker_hit = false;
      run_active = false;
      killed = false;
      timelapse = None;
      markers = [];
      c_mode_switches = Stats.counter stats "domain.mode_switches";
      c_user = Stats.counter stats "domain.cycles_in_mode.user";
      c_kernel = Stats.counter stats "domain.cycles_in_mode.kernel";
      c_idle = Stats.counter stats "domain.cycles_in_mode.idle";
      c_cycles = Stats.counter stats "domain.cycles";
      c_native_insns = Stats.counter stats "domain.native_insns";
    }
  in
  (* guest ptlcall: rdi = command string pointer, rsi = length *)
  env.Env.ptlcall <-
    (fun ctx ->
      let ptr = Context.gpr ctx Ptl_isa.Regs.rdi in
      let len = Int64.to_int (Context.gpr ctx Ptl_isa.Regs.rsi) in
      if len > 0 && len < 4096 then begin
        let text = Vmem.read_string env.Env.vmem ctx ~vaddr:ptr len ~at_rip:0L in
        match Ptlcall.parse text with
        | cmds ->
          t.pending <- t.pending @ cmds;
          (* a fresh command list preempts any open-ended -run phase *)
          t.run_active <- false
        | exception Ptlcall.Parse_error msg ->
          Logs.warn (fun m -> m "ptlcall: %s" msg)
      end);
  (* phase markers from the kernel flow into the domain *)
  (match kernel with
  | Some k ->
    k.Kernel.on_marker <-
      (fun n ->
        t.markers <- (n, env.Env.cycle) :: t.markers;
        match t.stop_marker with
        | Some m when m = n -> t.marker_hit <- true
        | _ -> ())
  | None -> ());
  t

(** Attach periodic statistics snapshots (the paper snapshots every 2.2M
    cycles — 1000 per simulated second at 2.2 GHz). *)
let enable_timelapse t ~interval =
  t.timelapse <- Some (Timelapse.create t.env.Env.stats ~interval)

let markers t = List.rev t.markers

(* ---- mode switching ---- *)

let enter_native t =
  if t.mode <> Native then begin
    Stats.incr t.c_mode_switches;
    t.mode <- Native;
    t.sim <- None
  end

let enter_sim t =
  if t.mode <> Simulating || t.sim = None then begin
    Stats.incr t.c_mode_switches;
    t.mode <- Simulating;
    let inst =
      Registry.build ?uarch:t.uarch t.core_name t.config t.env [| t.ctx |]
    in
    let inst =
      match t.instance_wrap with Some w -> w inst | None -> inst
    in
    t.sim <- Some inst
  end

(** Install a shared microarchitectural state threaded into every core
    instance built from now on (forcing a rebuild at the next simulation
    step). The sampling supervisor uses this so functional warming during
    fast-forward lands in the structures the timed core will read. *)
let set_uarch t u =
  t.uarch <- Some u;
  t.sim <- None

(** Install a decorator applied to every core instance the domain builds
    from now on (and to the current one, by forcing a rebuild at the
    next simulation step). *)
let set_instance_wrap t w =
  t.instance_wrap <- Some w;
  t.sim <- None

let clear_stops t =
  t.stop_insns <- None;
  t.stop_cycles <- None;
  t.stop_rip <- None;
  t.stop_marker <- None;
  t.marker_hit <- false

(* Apply queued ptlcall commands until a Run/Native begins executing. *)
let rec process_commands t =
  match t.pending with
  | [] -> ()
  | cmd :: rest ->
    t.pending <- rest;
    (match cmd with
    | Ptlcall.Set_core name ->
      t.core_name <- name;
      if t.mode = Simulating then t.sim <- None (* rebuild on entry *);
      process_commands t
    | Ptlcall.Run conditions ->
      clear_stops t;
      List.iter
        (function
          | Ptlcall.Stop_insns n ->
            t.stop_insns <- Some (t.ctx.Context.insns_committed + n)
          | Ptlcall.Stop_cycles n -> t.stop_cycles <- Some (t.env.Env.cycle + n)
          | Ptlcall.Stop_rip r -> t.stop_rip <- Some r
          | Ptlcall.Stop_marker m -> t.stop_marker <- Some m)
        conditions;
      t.run_active <- true;
      enter_sim t
    | Ptlcall.Native ->
      clear_stops t;
      t.run_active <- false;
      enter_native t;
      process_commands t
    | Ptlcall.Snapshot ->
      (match t.timelapse with
      | Some tl -> Timelapse.finish tl ~cycle:t.env.Env.cycle
      | None -> ());
      process_commands t
    | Ptlcall.Kill -> t.killed <- true
    | Ptlcall.Flush_stats ->
      Stats.reset t.env.Env.stats;
      process_commands t
    | Ptlcall.Sample_start ->
      t.sample_roi <- true;
      process_commands t
    | Ptlcall.Sample_stop ->
      t.sample_roi <- false;
      process_commands t)

(* A stop condition fired: the current Run phase is over; take the next
   command (typically -native), or just halt the stops. *)
let stops_hit t =
  (match t.stop_insns with
  | Some target when t.ctx.Context.insns_committed >= target -> true
  | _ -> false)
  || (match t.stop_cycles with
     | Some target when t.env.Env.cycle >= target -> true
     | _ -> false)
  || (match t.stop_rip with
     | Some rip when t.ctx.Context.rip = rip -> true
     | _ -> false)
  || t.marker_hit

(* ---- per-cycle accounting (Figure 2's user/kernel/idle split) ---- *)

let count_mode t n =
  Stats.add t.c_cycles n;
  if not t.ctx.Context.running then Stats.add t.c_idle n
  else if Context.is_kernel t.ctx then Stats.add t.c_kernel n
  else Stats.add t.c_user n

let tick_timelapse t =
  match t.timelapse with
  | Some tl -> Timelapse.tick tl ~cycle:t.env.Env.cycle
  | None -> ()

(* ---- stepping ---- *)

let sim_idle t =
  match t.sim with Some inst -> inst.Registry.idle () | None -> true

let domain_idle t =
  (not t.ctx.Context.running) && not (Context.interruptible t.ctx)
  && match t.mode with Simulating -> sim_idle t | Native -> true

(* advance virtual time for [n] native instructions *)
let native_advance t n =
  let total = (n * t.native_cpi_num) + t.native_frac in
  let cycles = total / t.native_cpi_den in
  t.native_frac <- total mod t.native_cpi_den;
  count_mode t cycles;
  t.env.Env.cycle <- t.env.Env.cycle + cycles

let step t =
  match t.mode with
  | Native -> (
    match Seqcore.step_block t.native with
    | Seqcore.Executed n ->
      Stats.add t.c_native_insns n;
      native_advance t (max 1 n)
    | Seqcore.Interrupted -> native_advance t 1
    | Seqcore.Idle -> ())
  | Simulating -> (
    enter_sim t;
    match t.sim with
    | Some inst ->
      (* count however much virtual time the instance consumed (1 cycle
         for the cycle-steppers, a block's worth for the functional one) *)
      let before = t.env.Env.cycle in
      inst.Registry.step ();
      count_mode t (max 1 (t.env.Env.cycle - before))
    | None -> assert false)

(** One iteration of the drive loop: service device events, skip idle
    gaps to the next timer, advance the active engine one step, tick the
    timelapse. Returns false when the domain can make no further
    progress (guest shut down, or halted with nothing pending). Mode and
    command handling are the caller's job — {!run} layers the ptlcall
    machinery on top; the sampling supervisor forces modes itself. *)
let drive_once t =
  (match t.kernel with
  | Some k ->
    if Kernel.next_event_cycle k <= t.env.Env.cycle then Kernel.poll k
  | None -> ());
  if match t.kernel with Some k -> Kernel.is_shutdown k | None -> false then
    false
  else if domain_idle t then (
    match t.kernel with
    | Some k ->
      let next = Kernel.next_event_cycle k in
      if next = max_int then false
      else begin
        let skip = max 1 (next - t.env.Env.cycle) in
        count_mode t skip;
        t.env.Env.cycle <- t.env.Env.cycle + skip;
        Kernel.poll k;
        tick_timelapse t;
        true
      end
    | None -> false)
  else begin
    step t;
    tick_timelapse t;
    true
  end

(** Drive the domain until killed, [max_cycles] elapse, or (with no kernel)
    the guest halts for good. *)
let run ?(max_cycles = max_int) t =
  let start = t.env.Env.cycle in
  let stop = ref false in
  while (not !stop) && (not t.killed) && t.env.Env.cycle - start < max_cycles do
    (* a -run phase parks the command queue until its stop conditions
       fire; everything else drains immediately *)
    if stops_hit t then begin
      clear_stops t;
      t.run_active <- false;
      (* a finished -run phase falls through to the next command; with
         none queued, drop to native mode like PTLsim's default *)
      if t.pending = [] then enter_native t
    end;
    if not t.run_active then process_commands t;
    if t.killed then stop := true
    else if not (drive_once t) then stop := true
  done;
  (match t.timelapse with
  | Some tl -> Timelapse.finish tl ~cycle:t.env.Env.cycle
  | None -> ());
  t.env.Env.cycle - start

(** Submit a command list programmatically (what the in-guest ptlctl tool
    does through the ptlcall opcode). *)
let submit t text = t.pending <- t.pending @ Ptlcall.parse text

let insns t = t.ctx.Context.insns_committed
