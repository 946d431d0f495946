(** Mixed-mode sampled simulation: SMARTS-style periodic sampling —
    repeating fast-forward (native, functionally warmed) -> warm-up
    (timed, unmeasured) -> measure (timed, measured) — on top of the
    paper's seamless native/simulation mode switching (§4.1).

    Fast-forward runs the sequential functional core at native speed
    while warming the long-lived microarchitectural state (cache tags
    and recency, TLBs, branch direction tables, BTB, RAS) through the
    silent [warm_*] entry points: no statistics move, no trace events
    fire. Measured intervals bracket {!Ptl_stats.Statstree} snapshot
    pairs; the aggregate CPI is sum(cycles)/sum(insns) with a 95%
    normal confidence interval over the per-interval CPIs. *)

(** Instructions per phase of one sampling period. *)
type schedule = {
  ff_insns : int;  (** fast-forwarded natively, warming *)
  warmup_insns : int;  (** timed but excluded from measurement *)
  measure_insns : int;  (** timed and measured *)
}

val default_warmup : int
val default_measure : int

(** Total instructions in one period. *)
val period : schedule -> int

(** Derive the schedule from the sampling flags. [ff]/[period] are the
    raw [--sample-ff] / [--sample-period] options (mutually exclusive; a
    period converts to a fast-forward length by subtracting warm-up and
    measure, and must exceed their sum). *)
val check_flags :
  ff:int option ->
  period:int option ->
  warmup:int ->
  measure:int ->
  unit ->
  (schedule, string) result

(** Where each period's warm-up + measure window sits within the period:
    [Fixed] closes every period with the window (the legacy schedule,
    prone to phase aliasing), [Rand_offset seed] draws a uniform offset
    per period from a dedicated deterministic RNG, [Stratified] sweeps
    the window across [strata] evenly spaced positions. The offset is
    the number of fast-forwarded instructions before the window; the
    remaining [ff_insns - offset] follow it. *)
type placement = Fixed | Rand_offset of int | Stratified

val placement_to_string : placement -> string

(** Parse a [--sample-offset] spec: ["fixed"] (or [""]), ["rand:SEED"]
    or ["stratified"]. *)
val parse_placement : string -> (placement, string) result

(** One measured interval: its snapshot pair and the instruction /
    cycle deltas between them. *)
type interval = {
  iv_index : int;
  iv_insns : int;
  iv_cycles : int;
  iv_cpi : float;
  iv_before : Ptl_stats.Statstree.snapshot;
  iv_after : Ptl_stats.Statstree.snapshot;
}

type result = {
  intervals : interval list;  (** in measurement order *)
  total_insns : int;  (** all instructions committed during the run *)
  total_cycles : int;  (** virtual cycles elapsed during the run *)
  measured_insns : int;
  measured_cycles : int;
  cpi : float;  (** aggregate: measured cycles / measured insns *)
  cpi_mean : float;  (** mean of the per-interval CPIs *)
  cpi_ci95 : float;  (** 95% confidence half-width of [cpi_mean] *)
  est_cycles : float;  (** [total_insns] x aggregate CPI *)
}

(** Fold measured intervals into the whole-run estimate (pure). *)
val aggregate :
  total_insns:int -> total_cycles:int -> interval list -> result

(** Sum of {!interval_stat} over every measured interval of a result —
    whole-run counter deltas attributable to measured execution. *)
val result_stat : result -> string -> int

(** Attach a warming {!Ptl_arch.Monitor} to the domain's native core so
    fast-forwarded instructions warm the shared {!Ptl_ooo.Uarch}
    (exposed for tests; {!run} installs it itself). Returns a function
    resetting the warmer's line memos — {!run_capture} calls it at every
    window-capture point so a resumed pass, whose freshly installed
    monitor starts with cold memos, warms exactly as the uninterrupted
    pass did. *)
val install_warming : Ptl_hyper.Domain.t -> Ptl_ooo.Uarch.t -> unit -> unit

(** Drive the domain to completion (guest shutdown / halt / [-kill] /
    budget) under [schedule]. Installs a shared {!Ptl_ooo.Uarch} via
    {!Ptl_hyper.Domain.set_uarch} if the domain has none, so warmed
    state survives core rebuilds. With [~roi:true], scheduling only
    advances while the guest's [-startsample] region is open
    (fast-forward and warming continue outside it). Calls
    {!Ptl_trace.Trace.sample_boundary} at the start of every measured
    interval. *)
val run :
  ?roi:bool ->
  ?placement:placement ->
  ?max_insns:int ->
  ?max_cycles:int ->
  schedule:schedule ->
  Ptl_hyper.Domain.t ->
  result

(** Replay one measured interval from a delta checkpoint on completely
    private state: private memory is a copy-on-write clone of the shared
    base image overlaid with the interval's dirty pages, and a fresh
    context, {!Ptl_ooo.Uarch} and stats tree restore from base + changed
    components (geometry-tolerant, so sweep legs may change [config]).
    Safe to run on any {!Stdlib.Domain}; a pure function of the
    checkpoint and schedule. [None] if the guest halts before committing
    a measured instruction.

    [progress] is invoked every ~2k pipeline steps — a liveness hook
    fleet workers heartbeat from; it must not touch simulator state.
    [wrap] interposes on the freshly built core instance before it
    drives (e.g. a {!Ptl_guard} supervisor), turning mid-replay
    invariant breaches into typed failures. *)
val replay_delta :
  ?progress:(unit -> unit) ->
  ?wrap:
    (env:Ptl_arch.Env.t ->
    ctx:Ptl_arch.Context.t ->
    Ptl_ooo.Registry.instance ->
    Ptl_ooo.Registry.instance) ->
  core_name:string ->
  config:Ptl_ooo.Config.t ->
  schedule:schedule ->
  index:int ->
  base:Ptl_hyper.Checkpoint.base ->
  Ptl_hyper.Checkpoint.delta ->
  interval option

(** One master capture pass: shared base image, one delta checkpoint
    per measured window (by capture index), whole-run totals, and the
    capture-cost accounting (delta vs full-image page payloads, summed
    over [cr_deltas]). What
    [optlsim capture] spills into a store and {!Ptl_fleet.Fleet.run_parallel}
    replays in-process. *)
type capture_run = {
  cr_base : Ptl_hyper.Checkpoint.base;
  cr_deltas : Ptl_hyper.Checkpoint.delta array;
  cr_insns : int;
  cr_cycles : int;
  cr_delta_bytes : int;
  cr_full_bytes : int;
}

(** Where an interrupted capture left off: base image, last journaled
    delta (the resumed pass restarts from its capture moment) and the
    windows already safe on disk ([rs_count >= 1]). *)
type resume_point = {
  rs_base : Ptl_hyper.Checkpoint.base;
  rs_last : Ptl_hyper.Checkpoint.delta;
  rs_count : int;
}

(** The master pass of checkpoint-parallel sampling: native execution
    with functional warming, a {!Ptl_hyper.Checkpoint.base} captured up
    front and a cheap delta at the start of every warm-up+measure
    window (the windows advance natively; workers replay them timed).
    Raises [Invalid_argument] on kernel-hosted domains.

    [on_base]/[on_window] stream the base and each delta (with its
    capture index) as captured (journaling). [resume] restarts an
    interrupted pass from its last journaled window; the domain must be
    rebuilt exactly as for the original pass (same workload, machine,
    schedule, placement). Every resumed delta is then byte-identical to
    the uninterrupted run's; [cr_deltas] and its byte sums cover only
    this process's windows while the insn/cycle totals cover the whole
    pass. *)
val run_capture :
  ?roi:bool ->
  ?placement:placement ->
  ?max_insns:int ->
  ?max_cycles:int ->
  ?on_base:(Ptl_hyper.Checkpoint.base -> unit) ->
  ?on_window:(int -> Ptl_hyper.Checkpoint.delta -> unit) ->
  ?resume:resume_point ->
  schedule:schedule ->
  Ptl_hyper.Domain.t ->
  capture_run

(** Per-interval table plus the aggregate estimate (the [--sample]
    end-of-run report). *)
val report : out_channel -> result -> unit

(** {!report}, then — only when [quarantined] is non-empty — an explicit
    DEGRADED section: coverage over the [count] captured intervals and
    each quarantined index with its retry count and last diagnostic
    (pairs are [(index, diagnostics)], diagnostics newest first). With
    nothing quarantined the output is byte-identical to {!report}. *)
val report_degraded :
  out_channel ->
  count:int ->
  quarantined:(int * string list) list ->
  result ->
  unit
