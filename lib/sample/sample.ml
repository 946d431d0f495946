(** Mixed-mode sampled simulation: fast-forward with functional warming
    plus periodic detailed intervals (SMARTS-style periodic sampling on
    top of the paper's seamless native/simulation mode switching, §4.1).

    The supervisor drives a {!Ptl_hyper.Domain} through a repeating

      fast-forward (native, warmed) -> warm-up (timed, unmeasured)
        -> measure (timed, measured)

    schedule. Fast-forward executes on the sequential functional core at
    native speed while *functionally warming* the long-lived
    microarchitectural state the timed core will read — L1/L2/L3 cache
    tags and recency, both TLB levels, the branch direction tables,
    BTB and return address stack — using the silent [warm_*] entry
    points, so no statistics counters move and no trace events are
    emitted outside measured intervals. The warm-up phase then runs the
    timed core unmeasured long enough for the short-lived pipeline state
    (ROB, queues, MSHRs) to settle; the measure phase brackets a
    {!Ptl_stats.Statstree} snapshot pair whose deltas become one sampled
    interval.

    The warmed structures live in a shared {!Ptl_ooo.Uarch} installed
    into the domain with {!Ptl_hyper.Domain.set_uarch}, so they survive
    the per-entry core rebuilds of [enter_sim].

    Aggregation follows SMARTS: the whole-run CPI estimate is
    sum(cycles)/sum(insns) over the measured intervals, the confidence
    interval is the 95% normal interval of the per-interval CPIs, and
    the estimated full-detail cycle count is total insns x aggregate
    CPI.

    The guest can gate sampling to a region of interest with the
    [-startsample] / [-stopsample] ptlcalls; under [~roi:true] the
    supervisor fast-forwards (still warming) until the ROI opens and
    ignores instructions outside it when scheduling intervals. *)

module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Seqcore = Ptl_arch.Seqcore
module Monitor = Ptl_arch.Monitor
module Rng = Ptl_util.Rng
module Stats = Ptl_stats.Statstree
module Timelapse = Ptl_stats.Timelapse
module Trace = Ptl_trace.Trace
module Uarch = Ptl_ooo.Uarch
module Registry = Ptl_ooo.Registry
module Domain = Ptl_hyper.Domain
module Checkpoint = Ptl_hyper.Checkpoint
module Ptlcall = Ptl_hyper.Ptlcall

(* ---------------------------------------------------------------- *)
(* Schedule and flag validation                                      *)
(* ---------------------------------------------------------------- *)

type schedule = {
  ff_insns : int;  (* native instructions fast-forwarded per period *)
  warmup_insns : int;  (* timed but unmeasured instructions *)
  measure_insns : int;  (* timed, measured instructions *)
}

let default_period = 1_000_000
let default_warmup = 20_000
let default_measure = 30_000

let period schedule =
  schedule.ff_insns + schedule.warmup_insns + schedule.measure_insns

(** Derive the schedule from the sampling flags. [ff] and [period] are
    the raw [--sample-ff] / [--sample-period] options (mutually
    exclusive; a period is converted to a fast-forward length by
    subtracting warm-up and measure, and must leave some). Returns
    [Error] with a user-ranked message instead of raising. *)
let check_flags ~ff ~period ~warmup ~measure () : (schedule, string) result =
  let schedule ff =
    Ok { ff_insns = ff; warmup_insns = warmup; measure_insns = measure }
  in
  match (ff, period) with
  | Some _, Some _ -> Error "give either --sample-ff or --sample-period, not both"
  | Some ff, None -> schedule ff
  | None, p ->
    let p = Option.value p ~default:default_period in
    if p <= warmup + measure then
      Error
        (Printf.sprintf
           "--sample-period %d must exceed warmup+measure (%d) so some \
            instructions are actually fast-forwarded"
           p (warmup + measure))
    else schedule (p - warmup - measure)

(* ---------------------------------------------------------------- *)
(* Interval placement                                                *)
(* ---------------------------------------------------------------- *)

(** Where each period's warm-up + measure window sits within the period.
    The offset is the number of fast-forwarded instructions *before* the
    window; the remaining [ff_insns - offset] are fast-forwarded after
    it, so a period always executes the same instruction budget.

    - [Fixed]: offset = [ff_insns] — the window closes each period, the
      original (and default) schedule. A workload whose phase length
      divides the period aliases with this: every window lands on the
      same phase.
    - [Rand_offset seed]: a uniformly random offset per period from a
      dedicated deterministic {!Rng}; breaks phase aliasing (SMARTS'
      systematic-sampling caveat) while staying reproducible per seed.
    - [Stratified]: period [i] uses the midpoint of stratum
      [i mod strata], sweeping the window across the period
      deterministically with no RNG at all. *)
type placement = Fixed | Rand_offset of int | Stratified

(** Strata a [Stratified] schedule rotates through. *)
let strata = 8

let placement_to_string = function
  | Fixed -> "fixed"
  | Rand_offset seed -> Printf.sprintf "rand:%d" seed
  | Stratified -> "stratified"

(** Parse a [--sample-offset] spec: [fixed] (default), [rand:SEED] or
    [stratified]. *)
let parse_placement = function
  | "" | "fixed" -> Ok Fixed
  | "stratified" -> Ok Stratified
  | s when String.length s > 5 && String.sub s 0 5 = "rand:" -> (
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some seed -> Ok (Rand_offset seed)
    | None -> Error (Printf.sprintf "%s: SEED must be an integer" s))
  | "rand" -> Error "rand needs a seed: rand:SEED"
  | other ->
    Error (Printf.sprintf "%s: expected fixed, rand:SEED or stratified" other)

(** Offset generator for a run: maps the period index to that period's
    window offset in [0, ff_insns]. [Rand_offset] placers are stateful —
    call once per period, in increasing period order — which both the
    serial and the checkpoint-parallel supervisors do by construction
    (offsets are always drawn on the single master pass). *)
let make_placer placement schedule =
  let ff = schedule.ff_insns in
  match placement with
  | Fixed -> fun _ -> ff
  | Stratified ->
    fun i ->
      if ff = 0 then 0 else (((2 * (i mod strata)) + 1) * ff) / (2 * strata)
  | Rand_offset seed ->
    let rng = Rng.create seed in
    fun _ -> if ff = 0 then 0 else Rng.int rng (ff + 1)

(* ---------------------------------------------------------------- *)
(* Results                                                           *)
(* ---------------------------------------------------------------- *)

(** One measured interval: the [Statstree] snapshot pair bracketing it
    plus the committed-instruction and cycle deltas between them. *)
type interval = {
  iv_index : int;
  iv_insns : int;
  iv_cycles : int;
  iv_cpi : float;
  iv_before : Stats.snapshot;
  iv_after : Stats.snapshot;
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
  est_cycles : float;  (** total_insns x aggregate CPI *)
}

(** Fold measured intervals into the whole-run estimate (pure; unit
    tested against hand-computed values). *)
let aggregate ~total_insns ~total_cycles intervals =
  let n = List.length intervals in
  let measured_insns =
    List.fold_left (fun a iv -> a + iv.iv_insns) 0 intervals
  and measured_cycles =
    List.fold_left (fun a iv -> a + iv.iv_cycles) 0 intervals
  in
  let cpi =
    if measured_insns = 0 then 0.0
    else float_of_int measured_cycles /. float_of_int measured_insns
  in
  let cpi_mean =
    if n = 0 then 0.0
    else
      List.fold_left (fun a iv -> a +. iv.iv_cpi) 0.0 intervals
      /. float_of_int n
  in
  let cpi_ci95 =
    if n <= 1 then 0.0
    else begin
      let var =
        List.fold_left
          (fun a iv ->
            let d = iv.iv_cpi -. cpi_mean in
            a +. (d *. d))
          0.0 intervals
        /. float_of_int (n - 1)
      in
      1.96 *. sqrt (var /. float_of_int n)
    end
  in
  {
    intervals;
    total_insns;
    total_cycles;
    measured_insns;
    measured_cycles;
    cpi;
    cpi_mean;
    cpi_ci95;
    est_cycles = float_of_int total_insns *. cpi;
  }

(* Per-interval counter deltas (snapshot subtraction): what the sweep
   engine's MPKI columns are computed from. *)
let interval_stat iv path = Stats.delta iv.iv_before iv.iv_after path

let result_stat r path =
  List.fold_left (fun acc iv -> acc + interval_stat iv path) 0 r.intervals

(* ---------------------------------------------------------------- *)
(* Functional warming                                                *)
(* ---------------------------------------------------------------- *)

(** Attach a warming {!Ptl_arch.Monitor} to the native sequential core,
    so every fast-forwarded instruction warms [uarch] architecturally:
    TLB fills fall back to a silent page walk (faulting accesses warm
    nothing — the native core raises the real fault itself), cache
    updates go through the [warm_*] hierarchy entry points, branches
    train the direction tables / BTB / RAS. No statistics counters move
    and no trace events are emitted. Returns the memo reset, called at
    every window-capture point: the line memos are harness state outside
    the checkpoint, so a resumed pass (which reinstalls warming fresh)
    must meet the same cold memos the original pass had at that
    boundary, or the first repeated-line access after the boundary would
    warm the hierarchy/TLB LRU in one run and be skipped in the other. *)
let install_warming (d : Domain.t) (u : Uarch.t) =
  let m =
    Monitor.warm ~env:d.Domain.env ~ctx:d.Domain.ctx ~hierarchy:u.Uarch.hierarchy
      ~dtlb:u.Uarch.dtlb ~itlb:u.Uarch.itlb ~pwc:u.Uarch.pwc
      ~hugepages:d.Domain.config.Ptl_ooo.Config.tlb_hugepages ~bpred:u.Uarch.bpred
  in
  d.Domain.native.Seqcore.monitor <- Some m;
  fun () -> Monitor.reset_memos m

let remove_warming (d : Domain.t) = d.Domain.native.Seqcore.monitor <- None

(* ---------------------------------------------------------------- *)
(* Supervisor                                                        *)
(* ---------------------------------------------------------------- *)

(* Under sampling the supervisor owns the schedule, so queued guest
   commands are reduced to the ones that still make sense: ROI toggles
   and -kill. -run / -native / -core would fight the phase machine. *)
let drain_commands (d : Domain.t) =
  match d.Domain.pending with
  | [] -> ()
  | cmds ->
    d.Domain.pending <- [];
    List.iter
      (fun cmd ->
        match cmd with
        | Ptlcall.Sample_start -> d.Domain.sample_roi <- true
        | Ptlcall.Sample_stop -> d.Domain.sample_roi <- false
        | Ptlcall.Kill -> d.Domain.killed <- true
        | Ptlcall.Snapshot -> (
          match d.Domain.timelapse with
          | Some tl -> Timelapse.finish tl ~cycle:d.Domain.env.Env.cycle
          | None -> ())
        | other ->
          Logs.debug (fun m ->
              m "sample: ignoring guest command %s under sampling"
                (Ptlcall.command_to_string other)))
      cmds

(* The native/timed driving handles a period driver lends its
   per-window action and resume prologue. *)
type pass = {
  uarch : Uarch.t;  (* the domain's shared microarchitectural state *)
  live : unit -> bool;  (* not halted, killed or out of budget *)
  drive_ff : int -> unit;  (* [n] ROI insns natively, warming *)
  drive_sim : int -> unit;  (* [n] more insns on the timed core *)
  reset_memos : unit -> unit;  (* see {!install_warming} *)
}

(* The period driver behind {!run} and {!run_capture}: get or create the
   shared {!Uarch}, tick the domain under ROI gating and the insn/cycle
   budget, and repeat periods of a leading fast-forward of the placer's
   offset, [window] (only while the domain is live) and the trailing
   [ff_insns - offset] fast-forward, so every period spends the same
   budget wherever the window lands. Under [Fixed] the offset is
   [ff_insns] and the trailing leg vanishes.

   [enter] runs once after the entry totals are read and before the
   warming hooks install — capture captures its base image or restores
   its resume point there — and its result goes to [resume] and
   [window]. [resume] runs once the hooks are in and returns the first
   period index (capture resume re-drives its restart window first).
   Returns [enter]'s result, the instructions committed and the cycles
   elapsed. *)
let drive_periods ~roi ~placement ~max_insns ~max_cycles ~schedule ~enter
    ~resume ~window (d : Domain.t) =
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let stats = env.Env.stats in
  let c_ff = Stats.counter stats "sample.ff_insns" in
  let uarch =
    match d.Domain.uarch with
    | Some u -> u
    | None ->
      let u = Uarch.create ~prefix:d.Domain.core_name d.Domain.config stats in
      Domain.set_uarch d u;
      u
  in
  if not roi then d.Domain.sample_roi <- true;
  (* entry totals read before any restore: a resumed capture rebuilds
     the domain deterministically, so they equal the original pass's
     and the final insn/cycle totals come out whole-run *)
  let start_cycle = env.Env.cycle
  and start_insns = ctx.Context.insns_committed in
  let finished = ref false in
  let out_of_budget () =
    ctx.Context.insns_committed - start_insns >= max_insns
    || env.Env.cycle - start_cycle >= max_cycles
  in
  let tick () =
    drain_commands d;
    if d.Domain.killed || out_of_budget () then begin
      finished := true;
      false
    end
    else if Domain.drive_once d then true
    else begin
      finished := true;
      false
    end
  in
  (* Fast-forward [n] ROI instructions on the native core; instructions
     committed while the ROI is closed warm but do not count. *)
  let drive_ff n =
    Domain.enter_native d;
    let remaining = ref n in
    let last = ref ctx.Context.insns_committed in
    while (not !finished) && (!remaining > 0 || (roi && not d.Domain.sample_roi))
    do
      if tick () then begin
        let now = ctx.Context.insns_committed in
        if d.Domain.sample_roi then remaining := !remaining - (now - !last);
        last := now
      end
    done
  in
  (* Drive the timed core until [n] more instructions commit. *)
  let drive_sim n =
    Domain.enter_sim d;
    let target = ctx.Context.insns_committed + n in
    while (not !finished) && ctx.Context.insns_committed < target do
      ignore (tick ())
    done
  in
  let state = enter uarch in
  (* warming hooks install after any restore: their TLB-generation memo
     must match the live context, or the first warmed access would
     flush the restored TLB contents the original run kept *)
  let reset_memos = install_warming d uarch in
  let p =
    {
      uarch;
      live = (fun () -> not !finished);
      drive_ff;
      drive_sim;
      reset_memos;
    }
  in
  let placer = make_placer placement schedule in
  let period_idx = ref (resume state p placer) in
  (* count only the fast-forward legs into sample.ff_insns *)
  let ff n =
    let i0 = ctx.Context.insns_committed in
    drive_ff n;
    Stats.add c_ff (ctx.Context.insns_committed - i0)
  in
  while not !finished do
    let off = placer !period_idx in
    incr period_idx;
    ff off;
    if not !finished then window state p (!period_idx - 1);
    if (not !finished) && schedule.ff_insns - off > 0 then
      ff (schedule.ff_insns - off)
  done;
  remove_warming d;
  Domain.enter_native d;
  (match d.Domain.timelapse with
  | Some tl -> Timelapse.finish tl ~cycle:env.Env.cycle
  | None -> ());
  ( state,
    ctx.Context.insns_committed - start_insns,
    env.Env.cycle - start_cycle )

(** Run the domain to completion (guest shutdown / halt / -kill /
    budget) under the sampling [schedule]. With [~roi:true] the
    measured periods only advance while the guest-controlled
    [-startsample] region is open; fast-forward (and warming) continues
    outside it. Each window runs warm-up then measure on the timed
    core. Returns the per-interval records and the aggregate CPI
    estimate. *)
let run ?(roi = false) ?(placement = Fixed) ?(max_insns = max_int)
    ?(max_cycles = max_int) ~schedule (d : Domain.t) =
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let stats = env.Env.stats in
  (* registration order is visible in snapshots and dumps: ff_insns
     (bumped by the driver) keeps its place among these *)
  let c_intervals = Stats.counter stats "sample.intervals"
  and _ = Stats.counter stats "sample.ff_insns"
  and c_warm = Stats.counter stats "sample.warmup_insns"
  and c_meas_i = Stats.counter stats "sample.measured_insns"
  and c_meas_c = Stats.counter stats "sample.measured_cycles" in
  let intervals = ref [] in
  let window () p _ =
    let i_warm = ctx.Context.insns_committed in
    p.drive_sim schedule.warmup_insns;
    Stats.add c_warm (ctx.Context.insns_committed - i_warm);
    if p.live () then begin
      Trace.sample_boundary ();
      let before = Stats.snapshot stats ~cycle:env.Env.cycle in
      let i0 = ctx.Context.insns_committed in
      p.drive_sim schedule.measure_insns;
      let after = Stats.snapshot stats ~cycle:env.Env.cycle in
      let insns = ctx.Context.insns_committed - i0 in
      let cycles = after.Stats.cycle - before.Stats.cycle in
      if insns > 0 then begin
        intervals :=
          {
            iv_index = List.length !intervals;
            iv_insns = insns;
            iv_cycles = cycles;
            iv_cpi = float_of_int cycles /. float_of_int insns;
            iv_before = before;
            iv_after = after;
          }
          :: !intervals;
        Stats.incr c_intervals;
        Stats.add c_meas_i insns;
        Stats.add c_meas_c cycles
      end
    end
  in
  let (), total_insns, total_cycles =
    drive_periods ~roi ~placement ~max_insns ~max_cycles ~schedule
      ~enter:ignore ~resume:(fun () _ _ -> 0) ~window d
  in
  aggregate ~total_insns ~total_cycles (List.rev !intervals)

(* ---------------------------------------------------------------- *)
(* Checkpoint-parallel sampling                                      *)
(* ---------------------------------------------------------------- *)

(** Replay one measured interval from a delta checkpoint on completely
    private state: the memory is a copy-on-write clone of the shared
    base image overlaid with the interval's dirty pages — O(frames +
    footprint) to build — and a fresh context, {!Uarch} and {!Stats}
    tree are restored from [base + delta]; a private core instance then
    drives warm-up and measure. Nothing here touches the master domain,
    so any number of these can run on separate {!Stdlib.Domain}s at
    once; determinism follows because the result is a pure function of
    the checkpoint and the schedule. Returns [None] when the guest halts
    before committing a single measured instruction.

    The restore is geometry-tolerant: a sweep leg with a different
    [config] starts the mismatched components cold (the warm-up phase
    re-warms them); same-config replays restore exactly. [progress]
    (default no-op) is invoked every ~2k pipeline steps — a cheap
    liveness hook fleet workers heartbeat their lease from; it must not
    touch simulator state. [wrap] interposes on the freshly built core
    instance before it drives — how fleet workers put a {!Ptl_guard}
    supervisor around each interval, turning a mid-replay invariant
    breach into a typed failure instead of a dead worker. *)
let replay_delta ?(progress = fun () -> ()) ?wrap ~core_name ~config
    ~schedule ~index ~(base : Checkpoint.base) (d : Checkpoint.delta) =
  let stats = Stats.create () in
  let mem = Checkpoint.clone_mem ~base d in
  let env = Env.create ~stats ~mem () in
  let ctx = Context.create ~vcpu_id:0 in
  let uarch = Uarch.create ~prefix:core_name config stats in
  ignore
    (Checkpoint.restore_delta_into_fit ~base d ~uarch env ctx : string list);
  let inst = Registry.build ~uarch core_name config env [| ctx |] in
  let inst = match wrap with None -> inst | Some w -> w ~env ~ctx inst in
  let halted () =
    (not ctx.Context.running)
    && (not (Context.interruptible ctx))
    && inst.Registry.idle ()
  in
  let steps = ref 0 in
  let drive n =
    let target = ctx.Context.insns_committed + n in
    while (not (halted ())) && ctx.Context.insns_committed < target do
      inst.Registry.step ();
      incr steps;
      if !steps land 2047 = 0 then progress ()
    done
  in
  drive schedule.warmup_insns;
  let before = Stats.snapshot stats ~cycle:env.Env.cycle in
  let i0 = ctx.Context.insns_committed in
  drive schedule.measure_insns;
  let after = Stats.snapshot stats ~cycle:env.Env.cycle in
  let insns = ctx.Context.insns_committed - i0 in
  let cycles = after.Stats.cycle - before.Stats.cycle in
  if insns > 0 then
    Some
      {
        iv_index = index;
        iv_insns = insns;
        iv_cycles = cycles;
        iv_cpi = float_of_int cycles /. float_of_int insns;
        iv_before = before;
        iv_after = after;
      }
  else None

(** What one master capture pass produced: the shared base image, one
    delta checkpoint per measured window, the whole-run totals, and the
    capture-cost accounting (delta vs full page payloads, summed over
    [cr_deltas]). This is what [optlsim capture] spills into a durable
    store (lib/store) and what {!Ptl_fleet.Fleet.run_parallel} replays
    in-process. *)
type capture_run = {
  cr_base : Checkpoint.base;
  cr_deltas : Checkpoint.delta array;  (** by capture index *)
  cr_insns : int;  (** instructions committed during the pass *)
  cr_cycles : int;  (** virtual cycles elapsed during the pass *)
  cr_delta_bytes : int;  (** page payload actually captured *)
  cr_full_bytes : int;  (** what full per-window images would have cost *)
}

(** Where an interrupted capture left off: the base image, the last
    journaled delta (whose capture moment the resumed pass restarts
    from) and how many windows are already safe on disk. *)
type resume_point = {
  rs_base : Checkpoint.base;
  rs_last : Checkpoint.delta;
  rs_count : int;
}

(** The master pass of checkpoint-parallel sampling: drive the whole
    workload on the native core with functional warming (the master
    never runs the timed core), capture a {!Checkpoint.base} up front
    and a cheap {!Checkpoint.delta} — dirty pages + changed
    microarchitectural components only — at the start of every
    warm-up+measure window. The windows themselves are advanced
    natively; replaying them timed is the workers' job ({!replay_delta},
    in-process or from a durable store via lib/fleet). ROI gating as in
    {!run}.

    [on_base] / [on_window] stream the base image and each delta (with
    its capture index) as they are captured (journaling); [resume]
    restarts an interrupted pass from its last journaled window instead
    of from scratch. The
    domain must be rebuilt exactly as for the original pass (same
    workload, machine, schedule, placement): the resumed pass restores
    the last delta's capture moment — {!Checkpoint.resume_delta}
    re-arms dirty tracking to the original run's — re-draws the placer
    prefix, and re-drives the already-journaled window natively, so
    every subsequent delta is byte-identical to the uninterrupted
    run's. On resume [cr_deltas] and its byte sums cover only the
    windows captured by this process (the journal already has the
    prefix), while the insn/cycle totals cover the whole pass.

    Raises [Invalid_argument] for kernel-hosted domains — host-side
    minios state is not checkpointable (the CLI offers [--sample-jobs]
    only with [compute --bare]). *)
let run_capture ?(roi = false) ?(placement = Fixed) ?(max_insns = max_int)
    ?(max_cycles = max_int) ?(on_base = fun _ -> ()) ?(on_window = fun _ _ -> ())
    ?resume ~schedule (d : Domain.t) =
  if d.Domain.kernel <> None then
    invalid_arg
      "Sample.run_capture: kernel-hosted domains are not checkpointable";
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let stats = env.Env.stats in
  let c_ff = Stats.counter stats "sample.ff_insns"
  and c_ckpt = Stats.counter stats "sample.checkpoints"
  and c_ckpt_pages = Stats.counter stats "sample.checkpoint_pages" in
  let window_insns = schedule.warmup_insns + schedule.measure_insns in
  let deltas = ref [] (* newest first; reversed below *) in
  let enter uarch =
    match resume with
    | None ->
      let b = Checkpoint.capture_base ~uarch env in
      on_base b;
      b
    | Some rs ->
      Checkpoint.resume_delta ~base:rs.rs_base rs.rs_last ~uarch env ctx;
      rs.rs_base
  in
  let resume_at _ p placer =
    match resume with
    | None -> 0
    | Some rs ->
      (* re-draw the placer prefix — stateful [Rand_offset] placers must
         see every period in order — keeping the offset of the window we
         restarted from *)
      let last_off = ref schedule.ff_insns in
      for i = 0 to rs.rs_count - 1 do
        last_off := placer i
      done;
      (* the restored moment is the START of journaled window
         [rs_count-1]: re-drive it (and its period's trailing
         fast-forward) natively to reach the next period's entry state *)
      let i_re = ctx.Context.insns_committed in
      p.drive_ff window_insns;
      if p.live () && schedule.ff_insns - !last_off > 0 then
        p.drive_ff (schedule.ff_insns - !last_off);
      Stats.add c_ff (ctx.Context.insns_committed - i_re);
      rs.rs_count
  in
  let window base p period =
    (* the native clock's sub-cycle remainder is harness state outside
       the checkpoint: zero it at the capture point, matching a resumed
       pass, which starts from a fresh domain *)
    d.Domain.native_frac <- 0;
    let dk = Checkpoint.capture_delta ~base ~uarch:p.uarch env ctx in
    deltas := dk :: !deltas;
    Stats.incr c_ckpt;
    Stats.add c_ckpt_pages (Checkpoint.delta_pages dk);
    on_window period dk;
    (* cold memos at the capture point, matching a resumed pass *)
    p.reset_memos ();
    (* advance natively through the window so the next period starts
       from sequential state; the workers will re-execute it timed *)
    p.drive_ff window_insns
  in
  let base, insns, cycles =
    drive_periods ~roi ~placement ~max_insns ~max_cycles ~schedule ~enter
      ~resume:resume_at ~window d
  in
  let deltas = Array.of_list (List.rev !deltas) in
  let sum f = Array.fold_left (fun a dk -> a + f dk) 0 deltas in
  {
    cr_base = base;
    cr_deltas = deltas;
    cr_insns = insns;
    cr_cycles = cycles;
    cr_delta_bytes = sum Checkpoint.delta_page_bytes;
    cr_full_bytes = sum Checkpoint.full_page_bytes;
  }

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

(** Human-readable per-interval table plus the aggregate estimate, the
    [optlsim --sample] end-of-run report. *)
let report oc r =
  Printf.fprintf oc "sampled run: %d interval(s), %d/%d insns measured\n"
    (List.length r.intervals) r.measured_insns r.total_insns;
  Printf.fprintf oc "  %-9s %12s %12s %8s\n" "interval" "insns" "cycles" "cpi";
  List.iter
    (fun iv ->
      Printf.fprintf oc "  %-9d %12d %12d %8.3f\n" iv.iv_index iv.iv_insns
        iv.iv_cycles iv.iv_cpi)
    r.intervals;
  Printf.fprintf oc "aggregate CPI %.4f (mean %.4f +/- %.4f, 95%% CI)\n" r.cpi
    r.cpi_mean r.cpi_ci95;
  Printf.fprintf oc
    "estimated full-detail cycles %.0f for %d insns (ran %d virtual cycles)\n"
    r.est_cycles r.total_insns r.total_cycles

(** {!report}, then — only when [quarantined] is non-empty — an explicit
    DEGRADED section: coverage over the [count] captured intervals, each
    quarantined index with its retry count and the first line of its
    last diagnostic. With no quarantined intervals the output is
    byte-identical to {!report}, so healthy runs cannot be told apart
    from runs through the degraded path. [quarantined] pairs are
    [(index, diagnostics)] with diagnostics newest first. *)
let report_degraded oc ~count ~quarantined r =
  report oc r;
  match quarantined with
  | [] -> ()
  | q ->
    let q = List.sort (fun (a, _) (b, _) -> compare a b) q in
    let nq = List.length q in
    let survived = count - nq in
    Printf.fprintf oc
      "DEGRADED: %d of %d interval(s) quarantined, coverage %.1f%%\n" nq count
      (if count = 0 then 0.0
       else 100.0 *. float_of_int survived /. float_of_int count);
    List.iter
      (fun (i, diags) ->
        let last = match diags with d :: _ -> d | [] -> "" in
        let first_line =
          match String.index_opt last '\n' with
          | Some j -> String.sub last 0 j
          | None -> last
        in
        Printf.fprintf oc "  interval %-4d %d failure(s): %s\n" i
          (List.length diags) first_line)
      q;
    Printf.fprintf oc
      "estimates above cover the %d surviving interval(s) only\n" survived
