(** Native-mode co-simulation self-validation (paper §2.3): run the same
    image on a cycle-accurate core and the functional reference in
    lockstep, one machine each per check, and compare architectural state
    at instruction-count checkpoints; [~check_every:1] names the first
    divergent instruction. The model side is any {!Ptl_ooo.Registry} core
    name ("ooo", "smt", "inorder"). *)

type result =
  | Agree of int  (** instructions compared *)
  | Diverged of {
      after_insns : int;
      diffs : string list;
      trace : string list;
          (** trace window leading up to the mismatch (text lines, oldest
              first); [[]] unless {!Ptl_trace.Trace} is armed *)
    }

(** How a model run ended: reached the requested instruction count, went
    idle (program finished), exhausted its step budget (wedged), or
    raised a typed simulator self-check fault (watchdog lockup or guard
    invariant violation). *)
type stop =
  | Reached
  | Idle
  | Out_of_budget
  | Hung of Ptl_ooo.Sim_failure.t

(** Run the timed core [core] for at least [n] committed instructions.
    [inject] is called after every step with the VCPU context (fault
    injection for harness self-tests); [wrap] decorates the built
    registry instance (the guard supervisor installs itself here);
    [budget] bounds the step count. *)
val run_model :
  ?config:Ptl_ooo.Config.t ->
  ?core:string ->
  ?inject:(Ptl_arch.Context.t -> unit) ->
  ?wrap:
    (Ptl_arch.Env.t ->
    Ptl_arch.Context.t ->
    Ptl_ooo.Registry.instance ->
    Ptl_ooo.Registry.instance) ->
  ?budget:int ->
  Ptl_isa.Asm.image ->
  n:int ->
  Ptl_arch.Machine.t * stop

(** Compare every [check_every] instructions and at [max_insns] (the last
    checkpoint, so no instruction up to it goes unchecked), stepping
    one model machine and one reference machine forward together; [wrap]
    is applied once, to the one model instance. [inject] is called after
    every model step and may depend only on the context it is given.
    [budget] bounds the model's steps over the whole run. When tracing is
    armed, the ring is cleared once before the model is built, the
    reference steps with tracing off, and a divergence carries the last
    [trace_lines] model events as text. *)
val validate :
  ?config:Ptl_ooo.Config.t ->
  ?core:string ->
  ?inject:(Ptl_arch.Context.t -> unit) ->
  ?wrap:
    (Ptl_arch.Env.t ->
    Ptl_arch.Context.t ->
    Ptl_ooo.Registry.instance ->
    Ptl_ooo.Registry.instance) ->
  ?budget:int ->
  ?mem_ranges:(int64 * int) list ->
  ?trace_lines:int ->
  ?check_every:int ->
  max_insns:int ->
  Ptl_isa.Asm.image ->
  result
