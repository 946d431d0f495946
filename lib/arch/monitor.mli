(** Microarchitectural models driven by the functional core's events:
    the in-order timed core's cycle charges ([timed]) and the sampler's
    functional warming ([warm]). {!Seqcore} calls {!load}, {!store},
    {!branch} and {!insn} directly on the one monitor it holds; there is
    no per-event closure. *)

module Hierarchy := Ptl_mem.Hierarchy
module Tlb := Ptl_mem.Tlb
module Pwc := Ptl_mem.Pwc
module Predictor := Ptl_bpred.Predictor
module Stats := Ptl_stats.Statstree

type t

(** A monitor that charges the in-order core's cycles: counted TLB and
    cache accesses, blocking page walks, an 8-cycle mispredict penalty,
    one base cycle per instruction, and one of [c_kernel]/[c_user] per
    instruction. *)
val timed :
  env:Env.t ->
  ctx:Context.t ->
  hierarchy:Hierarchy.t ->
  dtlb:Tlb.t ->
  itlb:Tlb.t ->
  pwc:Pwc.t option ->
  hugepages:bool ->
  bpred:Predictor.t ->
  c_kernel:Stats.counter ->
  c_user:Stats.counter ->
  t

(** A monitor that functionally warms these structures: no counter
    moves, no trace event is emitted and no cycle is charged. *)
val warm :
  env:Env.t ->
  ctx:Context.t ->
  hierarchy:Hierarchy.t ->
  dtlb:Tlb.t ->
  itlb:Tlb.t ->
  pwc:Pwc.t option ->
  hugepages:bool ->
  bpred:Predictor.t ->
  t

(** Cycles charged since the last call (always 0 for [warm]). *)
val take_cycles : t -> int

(** Forget warming's line memos, so the next access to any line warms
    it. Called at every window-capture point: the memos are state outside
    the checkpoint, so a resumed pass must meet the same cold memos the
    original pass had there. *)
val reset_memos : t -> unit

(** A load from [vaddr] is about to execute. *)
val load : t -> vaddr:int64 -> unit

(** A store to [vaddr] is about to execute. *)
val store : t -> vaddr:int64 -> unit

(** Branch uop [u] resolved: [taken], with resolved [target]. *)
val branch : t -> Ptl_uop.Uop.t -> taken:bool -> target:int64 -> unit

(** The instruction at the context's [rip] committed (before [rip]
    advances). *)
val insn : t -> unit
