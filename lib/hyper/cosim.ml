(** Native-mode co-simulation self-validation (§2.3).

    "It is possible, on an instruction by instruction basis, to determine
    where the architectural state produced by PTLsim's model begins to
    diverge from the state produced by the native x86 host processor."

    Here the functional core plays the reference processor. One check
    builds one model machine and one reference machine from the same
    image and steps them forward together, comparing architectural state
    every [check_every] committed instructions. The cost is linear in the
    program length, so [check_every = 1] names the first divergent
    instruction directly, where the paper binary-searches over re-runs.

    The model side is resolved through {!Ptl_ooo.Registry}, so any timed
    core ("ooo", "smt", "inorder") can be validated with the same driver.
    When the {!Ptl_trace} subsystem is armed, a divergence carries the
    trace window leading up to the mismatch; [inject] lets test harnesses
    plant a deliberate microarchitectural bug (e.g. a mutated flags write)
    to prove the validation catches it. *)

module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Seqcore = Ptl_arch.Seqcore
module Config = Ptl_ooo.Config
module Registry = Ptl_ooo.Registry
module Sim_failure = Ptl_ooo.Sim_failure
module Trace = Ptl_trace.Trace

type result =
  | Agree of int  (* instructions compared *)
  | Diverged of {
      after_insns : int;
      diffs : string list;
      (* trace window leading up to the mismatch; [] when tracing is off *)
      trace : string list;
    }

(* How a model run ended. [Hung] is a typed simulator self-check fault
   (watchdog lockup or guard invariant violation) raised mid-step. *)
type stop = Reached | Idle | Out_of_budget | Hung of Sim_failure.t

(* Build [core] on a fresh machine; returns the machine and a function
   stepping it until [n] instructions have committed, it goes idle, the
   [budget] (steps over all calls together) runs out, or a self-check
   fault is raised. *)
let start_model ~config ~core ?inject ?wrap ~budget image =
  let m = Machine.create image in
  let ctx = m.Machine.ctx in
  let inst = Registry.build core config m.Machine.env [| ctx |] in
  (* e.g. the guard supervisor (lib/guard), installed by the fuzz harness *)
  let inst = match wrap with Some w -> w m.Machine.env ctx inst | None -> inst in
  let budget = ref budget in
  let rec advance n =
    if ctx.Context.insns_committed >= n then Reached
    else if inst.Registry.idle () then Idle
    else if !budget <= 0 then Out_of_budget
    else begin
      let hung =
        try inst.Registry.step (); None
        with Sim_failure.Sim_failure f -> Some f
      in
      Option.iter (fun f -> f ctx) inject;
      decr budget;
      match hung with Some f -> Hung f | None -> advance n
    end
  in
  (m, advance)

(** Run [image] on the timed core [core] (a {!Registry} name) for at least
    [n] committed instructions. [inject], called after every step with the
    VCPU context, lets a harness corrupt state mid-run to emulate a core
    bug. [budget] bounds the number of steps so a wedged model is reported
    instead of hanging the validator. *)
let run_model ?(config = Config.tiny) ?(core = "ooo") ?inject ?wrap
    ?(budget = 50_000_000) image ~n =
  let m, advance = start_model ~config ~core ?inject ?wrap ~budget image in
  (m, advance n)

(* Build the functional core on a fresh machine, in single-instruction
   blocks for exact stepping; returns the machine and a function stepping
   it to [n] committed instructions. Once a step commits nothing or finds
   the VCPU idle it stays stopped, where a run from the start would stop.
   Tracing is off while it steps, so its commits and cycle stamps stay out
   of the model's trace window. *)
let start_reference image =
  let m = Machine.create image in
  let ctx = m.Machine.ctx in
  let seq = Seqcore.create ~max_bb_insns:1 m.Machine.env ctx in
  let live = ref true in
  let advance n =
    let tracing = !Trace.on in
    Trace.on := false;
    Fun.protect
      ~finally:(fun () -> Trace.on := tracing)
      (fun () ->
        while !live && ctx.Context.insns_committed < n && ctx.Context.running do
          match Seqcore.step_block seq with
          | Seqcore.Executed 0 | Seqcore.Idle -> live := false
          | Seqcore.Executed _ | Seqcore.Interrupted -> ()
        done)
  in
  (m, advance)

(* Full architectural comparison: registers/flags/rip plus the first few
   differing quadwords over the memory ranges the program writes. *)
let diff_machines ~mem_ranges ref_m model_m =
  Context.diff ref_m.Machine.ctx model_m.Machine.ctx
  @ List.map
      (fun (va, a, b) -> Printf.sprintf "mem[%#Lx]: %#Lx vs %#Lx" va a b)
      (Machine.quad_diffs mem_ranges (Machine.quad_reader ref_m)
         (Machine.quad_reader model_m))

(* Snapshot the tail of the armed trace window as text lines. *)
let trace_window lines =
  if !Trace.on then List.map Trace.event_to_string (Trace.recent lines)
  else []

(** Compare the model against the reference every [check_every]
    instructions and at [max_insns], the last checkpoint, stepping both
    forward from one build each. The model may overrun a checkpoint by a few commits within one
    cycle, so the reference is brought to the model's actual committed
    count before comparing. [budget] bounds the model's steps over the
    whole run. When tracing is armed the ring is cleared once, before the
    model is built, so a [Diverged] result carries the model-side window
    leading up to the mismatch. *)
let validate ?(config = Config.tiny) ?(core = "ooo") ?inject ?wrap
    ?(budget = 50_000_000) ?(mem_ranges = []) ?(trace_lines = 64)
    ?(check_every = 50) ~max_insns image =
  let ref_m, advance_reference = start_reference image in
  if !Trace.on then Trace.clear ();
  let model_m, advance = start_model ~config ~core ?inject ?wrap ~budget image in
  let rec go n =
    let stop = advance n in
    let window = trace_window trace_lines in
    let actual = model_m.Machine.ctx.Context.insns_committed in
    match stop with
    | Out_of_budget ->
      Diverged
        {
          after_insns = actual;
          diffs =
            [ Printf.sprintf
                "model wedged: step budget exhausted after %d committed insns"
                actual ];
          trace = window;
        }
    | Hung f ->
      (* A watchdog lockup / invariant violation is a reportable,
         shrinkable finding exactly like an architectural divergence. *)
      Diverged
        {
          after_insns = actual;
          diffs = Sim_failure.summary f :: [];
          trace = (if window <> [] then window else f.Sim_failure.trace_window);
        }
    | Reached | Idle ->
      advance_reference actual;
      let diffs = diff_machines ~mem_ranges ref_m model_m in
      if diffs <> [] then Diverged { after_insns = actual; diffs; trace = window }
      else if actual < n (* program finished early: fully compared *)
      then Agree actual
      else if n >= max_insns then Agree max_insns
      else go (min (n + check_every) max_insns)
  in
  go (min check_every max_insns)
