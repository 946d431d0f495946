(** Domain checkpointing: capture and restore the machine state of a
    bare-metal (kernel-less) domain — physical memory, VCPU context and
    the virtual clock. This is the foundation of the interrupt/DMA
    trace-and-inject methodology of §4.2 ("a checkpoint of the target
    machine's physical memory and register state is captured ... the
    simulator then starts execution at the checkpoint"), and of
    checkpoint-parallel sampled simulation (lib/sample, lib/fleet), where
    one base image plus a delta per measured interval lets any worker
    replay that interval.

    Full-system domains with a live minios instance carry host-side
    kernel bookkeeping (continuations) that is deliberately not
    checkpointable; the trace/inject experiments and parallel sampling
    run on bare-machine workloads, like the paper's device-level
    replay. *)

module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Pm = Ptl_mem.Phys_mem
module Uarch = Ptl_ooo.Uarch

type t = {
  mem_snapshot : Pm.t;
  ctx_snapshot : Context.t;
  cycle : int;
  tsc_offset : int64;
}

(** Capture the machine state. *)
let capture (env : Env.t) (ctx : Context.t) =
  {
    mem_snapshot = Pm.copy env.Env.mem;
    ctx_snapshot = Context.copy ctx;
    cycle = env.Env.cycle;
    tsc_offset = env.Env.tsc_offset;
  }

(** Restore the machine state in place: existing references to the
    environment and context remain valid, exactly like restarting a
    domain from a Xen checkpoint. *)
let restore t (env : Env.t) (ctx : Context.t) =
  Pm.restore env.Env.mem ~snapshot:t.mem_snapshot;
  Context.restore ctx ~snapshot:t.ctx_snapshot;
  env.Env.cycle <- t.cycle;
  env.Env.tsc_offset <- t.tsc_offset

(** Every difference between the live machine state and the checkpoint:
    architectural registers/rip/flags/mode (via {!Context.diff}), dirtied
    or (de)allocated physical pages, and the virtual clock. Empty =
    exact. ([Context.restore] bumps the TLB generation on purpose;
    generations are shoot-down bookkeeping, not architectural state, so
    they are not compared.) *)
let diff t (env : Env.t) (ctx : Context.t) =
  Context.diff ctx t.ctx_snapshot
  @ List.map
      (fun mfn -> Printf.sprintf "mem: frame mfn %#x differs" mfn)
      (Pm.diff env.Env.mem t.mem_snapshot)
  @ (if env.Env.cycle <> t.cycle then
       [ Printf.sprintf "cycle: %d vs %d" env.Env.cycle t.cycle ]
     else [])
  @
  if env.Env.tsc_offset <> t.tsc_offset then
    [
      Printf.sprintf "tsc_offset: %Ld vs %Ld" env.Env.tsc_offset t.tsc_offset;
    ]
  else []

(* ---- delta checkpoints: base image + per-interval footprints ---- *)

(** The master image a run of delta checkpoints is relative to: a deep
    copy of guest memory plus the warmed {!Uarch} snapshot at capture
    time. Immutable once captured, so any number of replay workers (on
    any number of {!Stdlib.Domain}s or processes) share one base. *)
type base = { bk_mem : Pm.t; bk_uarch : Uarch.snapshot }

(** Capture the base image and arm the environment's dirty-page
    tracking: subsequent {!capture_delta}s record only pages touched
    since this call. *)
let capture_base ~(uarch : Uarch.t) (env : Env.t) =
  let b = { bk_mem = Pm.copy env.Env.mem; bk_uarch = Uarch.snapshot uarch } in
  Pm.clear_dirty env.Env.mem;
  b

(** A checkpoint expressed against a {!base}: the dirty pages since the
    base was captured, the (small) architectural context, the virtual
    clock, and the microarchitectural components that changed. Capture
    cost scales with the interval's footprint, not guest memory size. *)
type delta = {
  dk_pages : Pm.delta;
  dk_ctx : Context.t;
  dk_cycle : int;
  dk_tsc_offset : int64;
  dk_uarch : Uarch.delta;
}

let capture_delta ~(base : base) ~(uarch : Uarch.t) (env : Env.t)
    (ctx : Context.t) =
  {
    dk_pages = Pm.delta env.Env.mem;
    dk_ctx = Context.copy ctx;
    dk_cycle = env.Env.cycle;
    dk_tsc_offset = env.Env.tsc_offset;
    dk_uarch = Uarch.delta uarch ~base:base.bk_uarch;
  }

(** Guest memory pages a delta carries (its footprint). *)
let delta_pages d = Pm.delta_pages d.dk_pages

(** Serialized page payload of a delta, against {!full_page_bytes} for
    the full image it replaces. *)
let delta_page_bytes d = Pm.delta_bytes d.dk_pages

(** Page payload of a full image of guest memory at the delta's capture
    point (what a per-window memory copy would cost). *)
let full_page_bytes d = Pm.delta_image_bytes d.dk_pages

(** A private physical memory reproducing the delta's capture point:
    a copy-on-write clone of the base overlaid with the dirty pages.
    O(frames + footprint), not O(guest bytes). *)
let clone_mem ~(base : base) (d : delta) =
  let mem = Pm.clone_cow base.bk_mem in
  Pm.apply_delta mem d.dk_pages;
  mem

(** Restore a delta's context, clock and microarchitectural state into
    worker state whose memory already came from {!clone_mem} (or was
    rebuilt in place by {!resume_delta}). Geometry-tolerant: uarch
    components the snapshot does not fit (a sweep leg replaying under a
    different machine configuration) start cold and re-warm during the
    warm-up phase. Returns the components started cold; empty for a
    same-configuration restore, which is exact. *)
let restore_delta_into_fit ~(base : base) (d : delta) ~uarch (env : Env.t)
    (ctx : Context.t) =
  Context.restore ctx ~snapshot:d.dk_ctx;
  env.Env.cycle <- d.dk_cycle;
  env.Env.tsc_offset <- d.dk_tsc_offset;
  Uarch.restore uarch ~base:base.bk_uarch ~delta:d.dk_uarch

(** Restore a delta checkpoint in place {e and re-arm dirty-page
    tracking as if the original capture run were still in flight}:
    memory is rebuilt from the base plus the delta's pages, leaving the
    dirty set exactly the delta's page set — what the original run had
    dirty at that capture moment (deltas are cumulative since
    {!capture_base}). A resumed capture's subsequent {!capture_delta}s
    are therefore byte-identical to the uninterrupted run's. Raises
    [Invalid_argument] when [uarch] was built for a different geometry
    than the checkpoint's: a resume must reproduce the run exactly. *)
let resume_delta ~(base : base) (d : delta) ~uarch (env : Env.t)
    (ctx : Context.t) =
  Pm.restore env.Env.mem ~snapshot:base.bk_mem;
  Pm.clear_dirty env.Env.mem;
  Pm.apply_delta env.Env.mem d.dk_pages;
  (match restore_delta_into_fit ~base d ~uarch env ctx with
  | [] -> ()
  | cold ->
    invalid_arg
      ("Checkpoint.resume_delta: geometry mismatch in "
      ^ String.concat ", " cold));
  (* Context.restore bumps tlb_generation to invalidate a live machine's
     stale TLB entries — but a resume rebuilds the uarch TLBs to exactly
     the checkpoint state, so the bump would only make the resumed run's
     future snapshots disagree with the original's by one generation.
     Restore the counter exactly. *)
  ctx.Context.tlb_generation <- d.dk_ctx.Context.tlb_generation
