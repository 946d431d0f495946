(** Differential fuzzing harness ([optlsim fuzz]): generated programs run
    on a timed core, the sequential reference and, by default, the
    spec-table oracle; a divergence is shrunk by delta debugging,
    re-run with the event trace armed, and reported with a majority
    verdict naming the odd model out and a replay command line. *)

module Context := Ptl_arch.Context
module Config := Ptl_ooo.Config
module Trace := Ptl_trace.Trace
module Cosim := Ptl_hyper.Cosim
module Guard := Ptl_guard.Guard
module Spec := Ptl_spec.Spec

(** The scratch window every generated memory access lands in; compared
   quadword by quadword at each checkpoint. The private stack above it is
   not compared directly, but any stack corruption surfaces through the
   registers popped from it. *)
val mem_ranges : (int64 * int) list

(** Step budget per model run: generated programs commit a few thousand
   instructions at most, so a model needing this many cycles is wedged. *)
val step_budget : int

(** Deliberately planted core bug for harness self-tests and
    [--fuzz-inject]: once [after] instructions have committed, the model
    core's flags writes are mutated (CF forced set) after every step.
    It reads only the context it is given, as {!Cosim.validate}'s
    [inject] must. *)
val flags_bug : after:int -> Context.t -> unit

(** One shrunk, reported divergence. *)
type divergence = {
  d_iter : int;  (** iteration that found it *)
  d_iter_seed : int;  (** per-iteration generator seed *)
  d_orig_insns : int;  (** static size before shrinking *)
  d_insns : int;  (** static size after shrinking *)
  d_after : int;  (** first divergent committed-instruction count *)
  d_pair : string;  (** which model pair disagreed first, e.g. "seq vs ooo" *)
  d_verdict : string;  (** majority verdict; [""] when the oracle is off *)
  d_listing : string list;  (** shrunk program disassembly *)
  d_diffs : string list;  (** architectural diffs of the diverging pair *)
  d_trace : string list;  (** trace window leading up to the mismatch *)
  d_report : string;  (** the full rendered report *)
}

(** A whole fuzzing run. *)
type summary = {
  s_seed : int;
  s_core : string;
  s_iters : int;
  s_gen_insns : int;  (** total static instructions generated *)
  s_oracle_checked : int;  (** iterations cross-checked against the oracle *)
  s_oracle_unsupported : int;  (** oracle bailed: no spec row (should be 0) *)
  s_divergences : divergence list;  (** in iteration order *)
}

(** Slots per generated program when [len] is not given. *)
val default_len : int

(** Committed instructions between state comparisons when [check_every]
    is not given. *)
val default_check_every : int

(** Run [iters] fuzzing iterations against [core]. [progress] is called
    after every iteration with (iteration, divergences-so-far).
    [replay_extra] is appended verbatim to the replay command line in
    reports (the CLI passes its [--fuzz-inject] flag through it).
    [oracle] (on by default) adds the spec-table reference interpreter as
    a third model, cross-checked in lockstep against the sequential core
    every iteration, riding the co-simulation's reference; [table]
    substitutes a mutated spec table (the planted-bug self-tests use
    {!Ptl_spec.Spec.drop_flag_write}). *)
val run :
  ?config:Config.t ->
  ?core:string ->
  ?inject:(Context.t -> unit) ->
  ?guard:Guard.config ->
  ?oracle:bool ->
  ?table:Spec.table ->
  ?classes:Fuzzgen.cls list ->
  ?len:int ->
  ?check_every:int ->
  ?trace_capacity:int ->
  ?trace_classes:Trace.cls list ->
  ?trace_lines:int ->
  ?replay_extra:string ->
  ?progress:(int -> int -> unit) -> seed:int -> iters:int -> unit -> summary

(** Write one report file per divergence under the existing directory
    [dir], named [div-seed<S>-iter<N>.txt]. Returns the paths written. *)
val write_reports : dir:string -> summary -> string list
