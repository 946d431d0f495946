(** The minios kernel model: processes, a scheduler with timer-driven
    preemption, a RAM file system with a modeled disk, pipes and
    loopback sockets, and optional demand paging through {!Ptl_vm.Vm}.
    Bookkeeping is host-side, but all guest-visible work (copy and
    checksum loops, interrupt entry and exit, the idle loop) runs as
    simulated kernel-mode instructions, so the user/kernel/idle cycle
    split of the paper's Figure 2 is simulated. [t] stays transparent
    for its file system ({!Ptl_workloads.Rsync_bench} checks the
    synchronized files) and its marker hook ({!Ptl_hyper.Domain}). *)

module Context := Ptl_arch.Context
module Env := Ptl_arch.Env
module Stats := Ptl_stats.Statstree
module Vm := Ptl_vm.Vm

type config = {
  timer_period : int;  (* cycles between timer interrupts *)
  timeslice_ticks : int;  (* timer ticks per scheduling quantum *)
  disk_latency : int;  (* cycles per block fetch from "disk" *)
  net_latency : int;  (* cycles per packet on the loopback path *)
  net_mtu : int;  (* bytes per packet *)
  kheap_pages : int;  (* page cache + ring buffer budget *)
  demand_paging : bool;  (* lazily populate user address spaces *)
  vm_watermark : int;  (* resident user-frame budget (0 = unlimited) *)
  vm_batch : int;  (* evictions per reclaim pass *)
}

(** 2.2 GHz-flavoured defaults: 1000 Hz timer, ~50us disk, ~30us network. *)
val default_config : config

(** A loopback socket endpoint. *)
type socket

(** A guest process. *)
type proc

(** A pending device event (timer, disk, network, wake-up). *)
type event

(** The kernel state. *)
type t = {
  env : Env.t;
  ctx : Context.t;
  config : config;
  layout : Kbuild.layout;
  fs : Ramfs.t;
  programs : (string, Ptl_isa.Asm.image) Hashtbl.t;
  mutable procs : proc list;
  mutable next_pid : int;
  mutable current : proc option;
  runqueue : int Queue.t;
  mutable events : (int * event) list;  (* sorted by cycle *)
  mutable next_event_cycle : int;
  mutable jiffies : int;
  kernel_cr3 : int;
  mutable kernel_pages : (int64 * int) list;  (* (va, mfn) of kernel region *)
  mutable kheap_next : int64;
  mutable kheap_end : int64;
  mutable sockets : socket list;
  mutable next_sock : int;
  mutable shutdown : bool;
  mutable scratch : int64;  (* kernel VA of a small metadata buffer *)
  vm : Vm.t option;  (* demand-paging policy engine (config.demand_paging) *)
  mutable on_marker : int -> unit;
  c_syscalls : Stats.counter;
  c_switches : Stats.counter;
  c_timer_ticks : Stats.counter;
  c_disk_reads : Stats.counter;
  c_packets : Stats.counter;
  c_page_ins : Stats.counter;
}

(** Cycle of the earliest pending device event ([max_int] if none). *)
val next_event_cycle : t -> int

(** A kernel for the VCPU [ctx] on [env]; {!boot} installs it. *)
val create : ?config:config -> Env.t -> Context.t -> t

(** Make [image] runnable under [name] (the [spawn] syscall's argument). *)
val register_program : t -> name:string -> Ptl_isa.Asm.image -> unit

(** Preload a file into the RAM file system. *)
val add_file : t -> name:string -> contents:string -> unit

(** Deliver every device event due at the current cycle. The driver
    calls this when the cycle reaches {!next_event_cycle}. *)
val poll : t -> unit

(** Install the kernel into the environment and point the VCPU at the
    guest boot code. The caller then drives the core model; the boot
    kcall spawns "init" and switches to it. *)
val boot : t -> unit

(** Every process has exited. *)
val is_shutdown : t -> bool

(** [(pid, exit code)] of every process that has exited, in pid order: a
    guest program's verdict channel, read by the minios tests. *)
val exit_codes : t -> (int * int) list
