(** The long-lived microarchitectural state of a timed core: cache
    hierarchy, TLBs, page-walk caches, branch predictor and the decoded
    basic block cache. The sampling supervisor creates one up front and
    threads it through {!Registry.build}, so warmed contents survive
    fast-forward phases and core rebuilds, and checkpoints carry it to
    replay workers. *)

module Hierarchy := Ptl_mem.Hierarchy
module Tlb := Ptl_mem.Tlb
module Pwc := Ptl_mem.Pwc
module Predictor := Ptl_bpred.Predictor
module Bbcache := Ptl_uop.Bbcache

(** The shared structures; a core reads them through these fields. *)
type t = {
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;  (* page-walk caches; None when pwc_entries = 0 *)
  bpred : Predictor.t;
  bbcache : Bbcache.t;
}

(** Cold structures sized by [config], counting under [prefix]. *)
val create : ?prefix:string -> Config.t -> Ptl_stats.Statstree.t -> t

(** Checkpoint of the warmed long-lived state: cache tags/LRU (with the
    replacement-RNG cursors), both TLBs and every predictor table. The
    decoded-basic-block cache is deliberately excluded — it is state
    derived purely from guest memory, so a restored worker rebuilds it
    deterministically as it decodes (the warm-up interval absorbs the
    cost, exactly like any other core rebuild). *)
type snapshot

(** Capture every component except the basic block cache. *)
val snapshot : t -> snapshot

(** Every mismatch between the live state and a snapshot, one line per
    difference with the owning subsystem named (empty = exact). *)
val diff : t -> snapshot -> string list

(** A snapshot expressed relative to a base snapshot: each component is
    present only if it changed since the base. Cache/TLB/predictor
    snapshots are plain data, so "changed" is structural inequality —
    the same snapshot-diff machinery the checkpoint round-trip harness
    trusts, reduced to a boolean. Per-interval capture cost then scales
    with what the interval perturbed, and a long-stable component
    (e.g. a saturated predictor) serializes as [None]. *)
type delta

(** The components that changed since [base]. *)
val delta : t -> base:snapshot -> delta

(** Restore in place the state [delta] was captured from: each
    component from the delta when it changed, from [base] otherwise.
    Tolerates a {e different} machine configuration (design-space sweep
    legs): a component restores only when the snapshot fits its
    geometry; the rest stay cold and re-warm during the interval's
    warm-up phase — the standard sampled-simulation treatment of warmed
    state that cannot be translated across geometries. Returns the
    components not restored (a PWC present on one side only counts);
    empty means the restore was exact. *)
val restore : t -> base:snapshot -> delta:delta -> string list
