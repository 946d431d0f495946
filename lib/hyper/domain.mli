(** A domain: one guest virtual machine under the PTLsim/X-style
    monitor. It owns the environment, the VCPU context, optionally a
    minios kernel, and the two engines of the paper's co-simulation
    design (§2.3): native mode (the functional core at a calibrated IPC)
    and simulation mode (any registered cycle-accurate core), switched
    seamlessly by ptlcall commands. The record is transparent because
    the sampling supervisor and the fleet drive its engines, mode
    flags and native clock directly. *)

module Env := Ptl_arch.Env
module Context := Ptl_arch.Context
module Seqcore := Ptl_arch.Seqcore
module Registry := Ptl_ooo.Registry
module Config := Ptl_ooo.Config
module Kernel := Ptl_kernel.Kernel
module Stats := Ptl_stats.Statstree
module Timelapse := Ptl_stats.Timelapse

(** Which engine runs the guest. *)
type mode

(** The domain state. *)
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

(** A domain over [env] and [ctx], starting in native mode. [core]
    (default ["ooo"]) names the {!Registry} model simulation mode builds
    with [config]; [native_cpi] is the native clock's cycles per
    instruction as a fraction (default 2/3). *)
val create :
  ?kernel:Kernel.t ->
  ?core:string ->
  ?native_cpi:int * int -> config:Config.t -> Env.t -> Context.t -> t

(** Attach periodic statistics snapshots (the paper snapshots every 2.2M
    cycles — 1000 per simulated second at 2.2 GHz). *)
val enable_timelapse : t -> interval:int -> unit

(** [(marker, cycle)] of every guest marker ptlcall so far, oldest first. *)
val markers : t -> (int * int) list

(** Switch to native mode, dropping the simulation core instance (a
    no-op when already there). *)
val enter_native : t -> unit

(** Switch to simulation mode, building the core instance if needed. *)
val enter_sim : t -> unit

(** Install a shared microarchitectural state threaded into every core
    instance built from now on (forcing a rebuild at the next simulation
    step). The sampling supervisor uses this so functional warming during
    fast-forward lands in the structures the timed core will read. *)
val set_uarch : t -> Ptl_ooo.Uarch.t -> unit

(** Install a decorator applied to every core instance the domain builds
    from now on (and to the current one, by forcing a rebuild at the
    next simulation step). *)
val set_instance_wrap : t -> (Registry.instance -> Registry.instance) -> unit

(** One iteration of the drive loop: service device events, skip idle
    gaps to the next timer, advance the active engine one step, tick the
    timelapse. Returns false when the domain can make no further
    progress (guest shut down, or halted with nothing pending). Mode and
    command handling are the caller's job — {!run} layers the ptlcall
    machinery on top; the sampling supervisor forces modes itself. *)
val drive_once : t -> bool

(** Drive the domain until killed, [max_cycles] elapse, or (with no kernel)
    the guest halts for good. *)
val run : ?max_cycles:int -> t -> int

(** Submit a command list programmatically (what the in-guest ptlctl tool
    does through the ptlcall opcode). *)
val submit : t -> string -> unit

(** Instructions the guest has committed, in both modes. *)
val insns : t -> int
