(** The sequential functional core: executes uops in program order with
    no timing model. It is the paper's in-order test core (§2.2), the
    reference the timed cores are co-simulated against (§2.3), and, at
    a calibrated IPC, the native-mode executor. *)

module Stats := Ptl_stats.Statstree

(** One instruction's buffered register writes and stores. *)
type buffer

(** A functional core over one VCPU. *)
type t = {
  env : Env.t;
  ctx : Context.t;
  prefix : string;  (* stats / trace namespace, e.g. "seq", "native" *)
  bbcache : Ptl_uop.Bbcache.t;
  mutable monitor : Monitor.t option;
      (** the timing or warming model fed this core's events *)
  buf : buffer;
  fetch : int64 -> int;  (** the block decoder's instruction fetch *)
  mfn_of : int64 -> int;  (** the frame behind a code address *)
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

(** Entries in each of the buffer's register-write and store parts:
    {!Ptl_uop.Microcode.max_uops}, since each uop of an instruction
    runs at most once. A macro-op that needs more raises
    [Invalid_argument]. *)
val buffer_slots : int

(** A core for [ctx] on [env]; [prefix] (default ["seq"]) namespaces its
    statistics, [max_bb_insns] bounds its basic blocks. *)
val create :
  ?prefix:string ->
  ?max_bb_insns:int -> Env.t -> Context.t -> t

(** Execute the macro-op whose first uop is [uops.(i)]. Register writes
    and stores are buffered (a read sees the newest buffered write, a
    load the newest buffered store to the same address and size) and
    applied oldest-first when the instruction ends. Returns the index of
    the next macro-op's first uop, or -1 when a taken branch or an assist
    redirected [rip]. A fault raises [Fault.Guest_fault] or
    [Ptl_uop.Exec.Divide_error] with nothing applied. *)
val exec_macro : t -> Ptl_uop.Uop.t array -> int -> int

(** What one {!step_block} did. *)
type status =
  | Executed of int  (* instructions committed in this step *)
  | Idle  (* VCPU halted, waiting for an interrupt *)
  | Interrupted

(** Execute one basic block's worth of instructions (or deliver one pending
    interrupt, or report the VCPU idle). Interrupts are sampled at block
    boundaries; blocks are bounded (16 instructions), so delivery latency
    is bounded and deterministic. *)
val step_block : t -> status

(** Run until [max_insns] instructions have committed or the VCPU goes
    idle with no interrupt pending. Returns the number committed. This is
    the native-mode execution loop: the caller advances simulated time at
    the calibrated native IPC rate. *)
val run : t -> max_insns:int -> int

(** Instructions committed so far. *)
val insns : t -> int
