(** Domain checkpointing (paper §4.2): capture and restore physical
    memory, VCPU context and the virtual clock of a bare-machine domain.
    Restores are in place, so existing references remain valid — like
    restarting a domain from a Xen checkpoint. {!base} + {!delta}
    checkpoints extend this with the warmed {!Ptl_ooo.Uarch} contents
    for checkpoint-parallel sampled simulation (lib/sample, lib/fleet). *)

type t

val capture : Ptl_arch.Env.t -> Ptl_arch.Context.t -> t
val restore : t -> Ptl_arch.Env.t -> Ptl_arch.Context.t -> unit

(** Every difference between the live machine state and the checkpoint
    (architectural context, dirtied pages, virtual clock); empty =
    exact. TLB generations are shoot-down bookkeeping and are not
    compared. *)
val diff : t -> Ptl_arch.Env.t -> Ptl_arch.Context.t -> string list

(** {2 Delta checkpoints}

    One {!base} image per run (deep memory copy + warmed
    {!Ptl_ooo.Uarch} snapshot), then a cheap {!delta} per interval:
    dirty pages since the base, the architectural context, the virtual
    clock, and only the microarchitectural components that changed.
    Capture cost scales with the interval's footprint, not guest
    memory size; workers rebuild private state from [base + delta]
    sharing the base copy-on-write. *)

(** Immutable once captured; safe to share across domains/processes. *)
type base = { bk_mem : Ptl_mem.Phys_mem.t; bk_uarch : Ptl_ooo.Uarch.snapshot }

(** Capture the base image and arm dirty-page tracking: subsequent
    {!capture_delta}s record only pages touched after this call. *)
val capture_base : uarch:Ptl_ooo.Uarch.t -> Ptl_arch.Env.t -> base

type delta = {
  dk_pages : Ptl_mem.Phys_mem.delta;
  dk_ctx : Ptl_arch.Context.t;
  dk_cycle : int;
  dk_tsc_offset : int64;
  dk_uarch : Ptl_ooo.Uarch.delta;
}

val capture_delta :
  base:base -> uarch:Ptl_ooo.Uarch.t -> Ptl_arch.Env.t ->
  Ptl_arch.Context.t -> delta

(** Guest memory pages a delta carries (its footprint). *)
val delta_pages : delta -> int

(** Serialized page payload of a delta / of a full image of guest
    memory at its capture point — the apples-to-apples capture-cost
    comparison. *)
val delta_page_bytes : delta -> int

val full_page_bytes : delta -> int

(** Private memory reproducing the delta's capture point: a
    copy-on-write clone of the base overlaid with the dirty pages;
    O(frames + footprint), not O(guest bytes). *)
val clone_mem : base:base -> delta -> Ptl_mem.Phys_mem.t

(** Restore a delta's context, clock and uarch state into worker state
    whose memory already came from {!clone_mem}, with geometry
    tolerance: uarch components the snapshot does not fit (a
    design-space sweep leg replaying under a different machine
    configuration) start cold and re-warm during the warm-up phase.
    Returns the component names started cold — empty for a
    same-configuration replay, which restores exactly. *)
val restore_delta_into_fit :
  base:base -> delta -> uarch:Ptl_ooo.Uarch.t -> Ptl_arch.Env.t ->
  Ptl_arch.Context.t -> string list

(** Restore in place for capture resume: rebuild memory from base +
    delta, re-arm dirty-page tracking as the original capture run had
    it at that moment (dirty set = the delta's page set), then
    {!restore_delta_into_fit}. A resumed capture's subsequent
    {!capture_delta}s are byte-identical to the uninterrupted run's.
    Raises [Invalid_argument] if [uarch]'s geometry differs from the
    checkpoint's. *)
val resume_delta :
  base:base -> delta -> uarch:Ptl_ooo.Uarch.t -> Ptl_arch.Env.t ->
  Ptl_arch.Context.t -> unit
