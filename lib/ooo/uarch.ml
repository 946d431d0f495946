(** The long-lived microarchitectural state of a timed core: cache
    hierarchy, TLBs, branch predictor and the decoded-basic-block cache.

    Normally each core instance builds its own set in [create]; mode
    switches (Domain.enter_sim) therefore start every simulation phase
    cold. The sampled-simulation supervisor (lib/sample) instead creates
    one [Uarch.t] up front and threads it through {!Registry.build}, so

    - cache/TLB/predictor contents survive the fast-forward phases and
      the per-phase core rebuilds (only pipeline state starts fresh,
      which the warm-up interval settles), and
    - the functional warmer can update the very structures the timed
      core will use, while the sequential core executes.

    [prefix] must match the core's stats/trace namespace ("ooo", "smt",
    "inorder") so counters land on the same paths either way. *)

module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Predictor = Ptl_bpred.Predictor
module Bbcache = Ptl_uop.Bbcache

type t = {
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;  (* page-walk caches; None when pwc_entries = 0 *)
  bpred : Predictor.t;
  bbcache : Bbcache.t;
}

let create ?(prefix = "ooo") (config : Config.t) stats =
  {
    hierarchy =
      Hierarchy.create ~prefix:(prefix ^ ".mem") stats config.Config.hierarchy;
    dtlb = Tlb.create ~name:(prefix ^ ".dtlb") config.Config.dtlb;
    itlb = Tlb.create ~name:(prefix ^ ".itlb") config.Config.itlb;
    pwc =
      (if config.Config.pwc_entries > 0 then
         Some
           (Pwc.create ~name:(prefix ^ ".pwc")
              ~entries:config.Config.pwc_entries ())
       else None);
    bpred = Predictor.create ~prefix:(prefix ^ ".bpred") stats config.Config.bpred;
    bbcache = Bbcache.create stats;
  }

(* ---- checkpointing (sampled-simulation parallel workers) ---- *)

(** Checkpoint of the warmed long-lived state: cache tags/LRU (with the
    replacement-RNG cursors), both TLBs and every predictor table. The
    decoded-basic-block cache is deliberately excluded — it is state
    derived purely from guest memory, so a restored worker rebuilds it
    deterministically as it decodes (the warm-up interval absorbs the
    cost, exactly like any other core rebuild). *)
type snapshot = {
  sn_hierarchy : Hierarchy.snapshot;
  sn_dtlb : Tlb.snapshot;
  sn_itlb : Tlb.snapshot;
  sn_pwc : Pwc.snapshot option;
  sn_bpred : Predictor.snapshot;
}

let snapshot t =
  {
    sn_hierarchy = Hierarchy.snapshot t.hierarchy;
    sn_dtlb = Tlb.snapshot t.dtlb;
    sn_itlb = Tlb.snapshot t.itlb;
    sn_pwc = Option.map Pwc.snapshot t.pwc;
    sn_bpred = Predictor.snapshot t.bpred;
  }

(** Every mismatch between the live state and a snapshot, one line per
    difference with the owning subsystem named (empty = exact). *)
let diff t snapshot =
  Hierarchy.diff t.hierarchy snapshot.sn_hierarchy
  @ Tlb.diff t.dtlb snapshot.sn_dtlb
  @ Tlb.diff t.itlb snapshot.sn_itlb
  @ (match (t.pwc, snapshot.sn_pwc) with
    | Some pwc, Some s -> Pwc.diff pwc s
    | None, None -> []
    | _ -> [ "pwc: presence mismatch" ])
  @ Predictor.diff t.bpred snapshot.sn_bpred

(* ---- delta snapshots (cheap per-interval checkpoints) ---- *)

(** A snapshot expressed relative to a base snapshot: each component is
    present only if it changed since the base. Cache/TLB/predictor
    snapshots are plain data, so "changed" is structural inequality —
    the same snapshot-diff machinery the checkpoint round-trip harness
    trusts, reduced to a boolean. Per-interval capture cost then scales
    with what the interval perturbed, and a long-stable component
    (e.g. a saturated predictor) serializes as [None]. *)
type delta = {
  d_hierarchy : Hierarchy.snapshot option;
  d_dtlb : Tlb.snapshot option;
  d_itlb : Tlb.snapshot option;
  d_pwc : Pwc.snapshot option option;  (* Some s = changed to s *)
  d_bpred : Predictor.snapshot option;
}

let delta t ~base =
  let keep changed v = if changed then Some v else None in
  let sn = snapshot t in
  {
    d_hierarchy = keep (sn.sn_hierarchy <> base.sn_hierarchy) sn.sn_hierarchy;
    d_dtlb = keep (sn.sn_dtlb <> base.sn_dtlb) sn.sn_dtlb;
    d_itlb = keep (sn.sn_itlb <> base.sn_itlb) sn.sn_itlb;
    d_pwc = keep (sn.sn_pwc <> base.sn_pwc) sn.sn_pwc;
    d_bpred = keep (sn.sn_bpred <> base.sn_bpred) sn.sn_bpred;
  }

(** Restore in place the state [delta] was captured from: each
    component from the delta when it changed, from [base] otherwise.
    Tolerates a {e different} machine configuration (design-space sweep
    legs): a component restores only when the snapshot fits its
    geometry; the rest stay cold and re-warm during the interval's
    warm-up phase — the standard sampled-simulation treatment of warmed
    state that cannot be translated across geometries. Returns the
    components not restored (a PWC present on one side only counts);
    empty means the restore was exact. *)
let restore t ~base ~delta =
  let pick changed base = Option.value changed ~default:base in
  let cold = ref [] in
  let component name fits restore =
    if fits then restore () else cold := name :: !cold
  in
  let hierarchy = pick delta.d_hierarchy base.sn_hierarchy
  and dtlb = pick delta.d_dtlb base.sn_dtlb
  and itlb = pick delta.d_itlb base.sn_itlb
  and bpred = pick delta.d_bpred base.sn_bpred in
  component "hierarchy"
    (Hierarchy.fits t.hierarchy hierarchy)
    (fun () -> Hierarchy.restore t.hierarchy ~snapshot:hierarchy);
  component "dtlb" (Tlb.fits t.dtlb dtlb) (fun () ->
      Tlb.restore t.dtlb ~snapshot:dtlb);
  component "itlb" (Tlb.fits t.itlb itlb) (fun () ->
      Tlb.restore t.itlb ~snapshot:itlb);
  (match (t.pwc, pick delta.d_pwc base.sn_pwc) with
  | Some pwc, Some s ->
    component "pwc" (Pwc.fits pwc s) (fun () -> Pwc.restore pwc ~snapshot:s)
  | None, None -> ()
  | _ -> component "pwc" false ignore);
  component "bpred"
    (Predictor.fits t.bpred bpred)
    (fun () -> Predictor.restore t.bpred ~snapshot:bpred);
  List.rev !cold
