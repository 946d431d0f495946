(** The sequential functional core: executes uops in program order with
    no timing model. It is the paper's in-order test core (§2.2), the
    reference the timed cores are co-simulated against (§2.3), and, at
    a calibrated IPC, the native-mode executor. *)

module Stats := Ptl_stats.Statstree

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

(** A functional core over one VCPU. *)
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

(** A core for [ctx] on [env]; [prefix] (default ["seq"]) namespaces its
    statistics, [max_bb_insns] bounds its basic blocks. *)
val create :
  ?prefix:string ->
  ?max_bb_insns:int -> Env.t -> Context.t -> t

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
