(** Simulator self-checks and crash containment.

    PTLsim's credibility rests on the timed cores staying correct over
    billion-cycle runs, and the paper's own deadlock-prevention schemes
    (§2.2) show how easily a clustered OOO/SMT pipeline silently wedges
    or leaks structural resources. This subsystem keeps the models
    honest at runtime:

    - a pluggable {b invariant registry}: named structural checks (ROB
      ordering, physical-register conservation and leak detection, LSQ
      ordering, issue-queue slot conservation, cache tag/LRU and MSHR
      consistency, TLB internal consistency and — optionally —
      TLB↔pagetable agreement) built from small inspection hooks the
      core and memory subsystems expose;
    - a {b supervisor} wrapping any {!Ptl_ooo.Registry.instance}: it
      samples the registered invariants every [interval] steps, takes
      periodic {!Ptl_hyper.Checkpoint} snapshots, and on a watchdog
      lockup or invariant violation emits a {!Ptl_ooo.Sim_failure}
      diagnostic bundle — then either re-raises (default) or, under
      [degrade], rolls back to the last checkpoint and finishes the run
      on the sequential reference core so long experiments make forward
      progress instead of dying.

    The TLB↔pagetable agreement check is strict-mode only: between a
    guest store to a page table and the subsequent invlpg/CR3 write, a
    real TLB legitimately holds stale entries, so the check is sound
    only where the guest never edits live page tables (the bare-machine
    fuzz/cosim harnesses). *)

module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Registry = Ptl_ooo.Registry
module Config = Ptl_ooo.Config
module Ooo_core = Ptl_ooo.Ooo_core
module Inorder_core = Ptl_ooo.Inorder_core
module Physreg = Ptl_ooo.Physreg
module Sim_failure = Ptl_ooo.Sim_failure
module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Pt = Ptl_mem.Pagetable
module Checkpoint = Ptl_hyper.Checkpoint
module Stats = Ptl_stats.Statstree

(* ---------- the invariant registry ---------- *)

(** One named structural check. [run] returns a violation description,
    or None while the invariant holds. [stride] cost-tiers the check:
    it runs on every [stride]-th sweep only (1 = every sweep). Full
    memory-array scans (cache tags, TLB levels, pagetable walks) are
    orders of magnitude more expensive than the core-structure checks,
    so they ride a slower cadence to keep the default sweep interval
    under the <10% overhead budget. *)
type check = {
  name : string;
  subsystem : string;
  stride : int;
  run : unit -> string option;
}

let make_check ?(stride = 1) ~name ~subsystem run =
  { name; subsystem; stride = max 1 stride; run }

(** First violated check, with its message. *)
let first_violation checks =
  List.fold_left
    (fun acc c ->
      match acc with
      | Some _ -> acc
      | None -> (match c.run () with Some msg -> Some (c, msg) | None -> None))
    None checks

(** First violated check among those due on sweep number [sweep]. *)
let first_violation_due ~sweep checks =
  first_violation (List.filter (fun c -> sweep mod c.stride = 0) checks)

(* ---------- per-structure check builders ---------- *)

(* Sweep stride for the full-array scans; the cheap core-structure
   checks run every sweep. *)
let expensive_stride = 16

(** Cache hierarchy + MSHR consistency, under subsystem [sub]. *)
let hierarchy_checks ~sub (env : Env.t) (h : Hierarchy.t) =
  [
    make_check ~stride:expensive_stride ~name:(sub ^ ".cache") ~subsystem:sub
      (fun () -> Hierarchy.check h ~cycle:env.Env.cycle);
  ]

(** TLB internal consistency, under subsystem [sub]. *)
let tlb_checks ~sub (tlbs : Tlb.t list) =
  List.map
    (fun tlb ->
      make_check ~stride:expensive_stride ~name:(sub ^ ".consistency")
        ~subsystem:sub (fun () -> Tlb.check tlb))
    tlbs

(** Strict-mode TLB↔pagetable agreement: every cached translation must
    match what a fresh walk of the current page tables produces. Only
    sound when the guest does not edit live page tables (see module
    doc). *)
let tlb_pagetable_check ~sub (env : Env.t) (ctx : Context.t) (tlb : Tlb.t) =
  make_check ~stride:expensive_stride ~name:(sub ^ ".pagetable")
    ~subsystem:sub (fun () ->
      List.fold_left
        (fun acc (tag, (e : Tlb.entry)) ->
          match acc with
          | Some _ -> acc
          | None ->
            (* A tag covers 4K or 2M depending on the entry's page size;
               comparing paddrs at the region base is size-agnostic (a
               fresh walk of a huge mapping yields the exact 4K frame). *)
            let vaddr = Tlb.vaddr_of_tag tag in
            (match
               Pt.walk env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write:false
                 ~user:false ~exec:false ~set_ad:false ()
             with
            | Ok tr when Pt.to_paddr tr vaddr = Tlb.paddr_of e vaddr -> None
            | Ok tr ->
              Some
                (Printf.sprintf
                   "tag %#Lx (%s) cached paddr %#x but pagetable says %#x"
                   tag
                   (if e.Tlb.huge then "2M" else "4K")
                   (Tlb.paddr_of e vaddr) (Pt.to_paddr tr vaddr))
            | Error _ ->
              Some
                (Printf.sprintf
                   "tag %#Lx cached (mfn %d) but no longer mapped" tag
                   e.Tlb.mfn)))
        None (Tlb.entries tlb))

(** Strict-mode PWC↔pagetable agreement: every cached walk-cache entry at
    depth [d] must name the very table a presence-only descent from CR3
    reaches for that prefix (depth 0 = PT, 1 = PD, 2 = PDPT). A PS leaf
    met above the target level means the entry outlived a promote. Same
    soundness caveat as the TLB check. *)
let pwc_pagetable_check ~sub (env : Env.t) (ctx : Context.t)
    (pwc : Ptl_mem.Pwc.t) =
  let mem = env.Env.mem in
  make_check ~stride:expensive_stride ~name:(sub ^ ".pagetable")
    ~subsystem:sub (fun () ->
      List.fold_left
        (fun acc (depth, prefix, table_mfn) ->
          match acc with
          | Some _ -> acc
          | None ->
            let vaddr =
              Int64.shift_left prefix (Pt.huge_shift + (Pt.index_bits * depth))
            in
            let rec descend level table =
              if level = depth then
                if table = table_mfn then None
                else
                  Some
                    (Printf.sprintf
                       "depth %d prefix %#Lx cached table mfn %d but \
                        pagetable says %d"
                       depth prefix table_mfn table)
              else
                let idx = Pt.vpn_index vaddr level in
                let pte =
                  Ptl_mem.Phys_mem.read64 mem
                    (Ptl_mem.Phys_mem.paddr_of_mfn table + (8 * idx))
                in
                if Int64.logand pte Pt.pte_p = 0L then
                  Some
                    (Printf.sprintf
                       "depth %d prefix %#Lx cached table mfn %d but the \
                        level-%d table is gone"
                       depth prefix table_mfn level)
                else if level = 1 && Int64.logand pte Pt.pte_ps <> 0L then
                  Some
                    (Printf.sprintf
                       "depth %d prefix %#Lx cached table mfn %d under a \
                        2M leaf (stale after promote)"
                       depth prefix table_mfn)
                else descend (level - 1) (Pt.pte_mfn pte)
            in
            descend 3 ctx.Context.cr3)
        None (Ptl_mem.Pwc.entries pwc))

(** The full invariant set for an out-of-order/SMT core. *)
let ooo_checks ?(strict_tlb = false) (env : Env.t) (core : Ooo_core.t) =
  let sub suffix = core.Ooo_core.prefix ^ "." ^ suffix in
  let structural =
    [
      make_check ~name:(sub "rob.order") ~subsystem:(sub "rob") (fun () ->
          Ooo_core.guard_rob_order_check core);
      make_check ~name:(sub "lsq.order") ~subsystem:(sub "lsq") (fun () ->
          Ooo_core.guard_lsq_check core);
      make_check ~name:(sub "physreg.conservation") ~subsystem:(sub "physreg")
        (fun () ->
          Physreg.conservation_check core.Ooo_core.prf
            ~iter_referenced:(Ooo_core.guard_iter_referenced core));
      make_check ~name:(sub "iq.conservation") ~subsystem:(sub "iq") (fun () ->
          Ooo_core.guard_iq_check core);
      make_check ~name:(sub "interlock.leak") ~subsystem:(sub "interlock")
        (fun () -> Ooo_core.guard_interlock_check core);
    ]
  in
  let mem =
    hierarchy_checks ~sub:(sub "mem") env core.Ooo_core.hierarchy
    @ tlb_checks ~sub:(sub "tlb") [ core.Ooo_core.dtlb; core.Ooo_core.itlb ]
  in
  let strict =
    if strict_tlb then
      let ctx = core.Ooo_core.threads.(0).Ooo_core.ctx in
      [
        tlb_pagetable_check ~sub:(sub "dtlb") env ctx core.Ooo_core.dtlb;
        tlb_pagetable_check ~sub:(sub "itlb") env ctx core.Ooo_core.itlb;
      ]
      @ (match core.Ooo_core.pwc with
        | Some pwc -> [ pwc_pagetable_check ~sub:(sub "pwc") env ctx pwc ]
        | None -> [])
    else []
  in
  structural @ mem @ strict

(** The invariant set for the in-order timed core (its pipeline state is
    a single block in flight; the structural surface is the memory
    system). *)
let inorder_checks ?(strict_tlb = false) (env : Env.t) (core : Inorder_core.t) =
  hierarchy_checks ~sub:"inorder.mem" env core.Inorder_core.hierarchy
  @ tlb_checks ~sub:"inorder.tlb"
      [ core.Inorder_core.dtlb; core.Inorder_core.itlb ]
  @
  if strict_tlb then
    [
      tlb_pagetable_check ~sub:"inorder.dtlb" env core.Inorder_core.ctx
        core.Inorder_core.dtlb;
      tlb_pagetable_check ~sub:"inorder.itlb" env core.Inorder_core.ctx
        core.Inorder_core.itlb;
    ]
    @ (match core.Inorder_core.pwc with
      | Some pwc ->
        [ pwc_pagetable_check ~sub:"inorder.pwc" env core.Inorder_core.ctx pwc ]
      | None -> [])
  else []

(** The invariant set behind a registry instance, chosen by its handle.
    The sequential reference core has no microarchitectural state to
    check. *)
let checks_for_instance ?strict_tlb (env : Env.t) (inst : Registry.instance) =
  match inst.Registry.handle with
  | Registry.Core_ooo core -> ooo_checks ?strict_tlb env core
  | Registry.Core_inorder core -> inorder_checks ?strict_tlb env core
  | Registry.Core_seq _ | Registry.Core_opaque -> []

(* ---------- the supervisor ---------- *)

type config = {
  interval : int;  (* run the invariant set every N steps *)
  checkpoint_every : int;  (* cycles between snapshots; 0 = none *)
  degrade : bool;  (* roll back + finish on the seq core on failure *)
  strict_tlb : bool;  (* arm the TLB↔pagetable agreement check *)
}

let default_config =
  { interval = 64; checkpoint_every = 0; degrade = false; strict_tlb = false }

type supervisor = {
  cfg : config;
  env : Env.t;
  ctx : Context.t;
  out : out_channel;
  mutable inner : Registry.instance;
  mutable checks : check list;
  mutable steps : int;
  mutable next_checkpoint : int;  (* cycle of the next snapshot *)
  mutable last_checkpoint : Checkpoint.t option;
  mutable degraded : bool;
  c_checks : Stats.counter;
  c_violations : Stats.counter;
  c_checkpoints : Stats.counter;
  c_rollbacks : Stats.counter;
  c_degraded : Stats.counter;
}

let take_checkpoint s =
  s.last_checkpoint <- Some (Checkpoint.capture s.env s.ctx);
  s.next_checkpoint <- s.env.Env.cycle + s.cfg.checkpoint_every;
  Stats.incr s.c_checkpoints

(* A failure surfaced: either re-raise for the driver to render and
   handle (default), or print the diagnostic bundle here and fall back
   to the sequential reference core from the last checkpoint (degrade —
   the failure is swallowed, so this is its only chance to be seen). *)
let handle_failure s (f : Sim_failure.t) =
  Stats.incr s.c_violations;
  if not s.cfg.degrade then raise (Sim_failure.Sim_failure f)
  else begin
    output_string s.out (Sim_failure.render f);
    flush s.out;
    (match s.last_checkpoint with
    | Some cp ->
      Checkpoint.restore cp s.env s.ctx;
      Stats.incr s.c_rollbacks;
      Printf.fprintf s.out
        "guard: rolled back to checkpoint at cycle %d; degrading to the seq core\n"
        s.env.Env.cycle
    | None ->
      Printf.fprintf s.out
        "guard: no checkpoint to roll back to; degrading to the seq core in place\n");
    flush s.out;
    s.degraded <- true;
    s.checks <- [];
    s.inner <- Registry.build "seq" Config.tiny s.env [| s.ctx |];
    Stats.incr s.c_degraded
  end

let run_checks s ~sweep =
  Stats.incr s.c_checks;
  match first_violation_due ~sweep s.checks with
  | None -> ()
  | Some (c, msg) ->
    let f =
      Sim_failure.make ~stats:s.env.Env.stats ~subsystem:c.subsystem
        ~kind:Sim_failure.Invariant ~cycle:s.env.Env.cycle
        ~rip:s.ctx.Context.rip
        (Printf.sprintf "%s: %s" c.name msg)
    in
    handle_failure s f

let sup_step s () =
  if s.degraded then s.inner.Registry.step ()
  else begin
    (try s.inner.Registry.step ()
     with Sim_failure.Sim_failure f -> handle_failure s f);
    if not s.degraded then begin
      s.steps <- s.steps + 1;
      if s.cfg.checkpoint_every > 0 && s.env.Env.cycle >= s.next_checkpoint
      then take_checkpoint s;
      if s.steps mod s.cfg.interval = 0 then
        run_checks s ~sweep:(s.steps / s.cfg.interval)
    end
  end

(** Extra named checks (e.g. a test's planted tripwire) on a wrapped
    instance. No effect on instances not produced by {!wrap}.

    The registry is process-global and mutex-guarded: fleet workers and
    sweep legs wrap a supervisor around every replay, and replays run
    concurrently on several {!Stdlib.Domain}s. (Each supervisor itself
    still belongs to the one domain driving its instance; only the
    name->supervisor table is shared.) *)
let supervisors : (string, supervisor) Hashtbl.t = Hashtbl.create 4

let supervisors_lock = Mutex.create ()

let find_supervisor name =
  Mutex.lock supervisors_lock;
  let s = Hashtbl.find_opt supervisors name in
  Mutex.unlock supervisors_lock;
  s

let register_check (inst : Registry.instance) c =
  match find_supervisor inst.Registry.model_name with
  | Some s -> s.checks <- c :: s.checks
  | None -> ()

(** Wrap [inst] in a supervisor over the (single) context [ctx]. The
    wrapped instance steps the original core, samples the invariant set
    every [interval] steps, snapshots every [checkpoint_every] cycles
    (when > 0, or once at wrap time under [degrade]), and contains
    failures per [config]. Diagnostic bundles go to [out] (stderr by
    default). *)
let wrap ?(config = default_config) ?(out = stderr) ~env ~ctx inst =
  let s =
    {
      cfg = config;
      env;
      ctx;
      out;
      inner = inst;
      checks = checks_for_instance ~strict_tlb:config.strict_tlb env inst;
      steps = 0;
      next_checkpoint = env.Env.cycle + max 1 config.checkpoint_every;
      last_checkpoint = None;
      degraded = false;
      c_checks = Stats.counter env.Env.stats "guard.check_passes";
      c_violations = Stats.counter env.Env.stats "guard.violations";
      c_checkpoints = Stats.counter env.Env.stats "guard.checkpoints";
      c_rollbacks = Stats.counter env.Env.stats "guard.rollbacks";
      c_degraded = Stats.counter env.Env.stats "guard.degraded";
    }
  in
  (* Under degrade a rollback target must always exist. *)
  if config.degrade then take_checkpoint s;
  let name = "guard:" ^ inst.Registry.model_name in
  Mutex.lock supervisors_lock;
  Hashtbl.replace supervisors name s;
  Mutex.unlock supervisors_lock;
  {
    Registry.model_name = name;
    step = sup_step s;
    idle = (fun () -> s.inner.Registry.idle ());
    insns = (fun () -> s.inner.Registry.insns ());
    handle = inst.Registry.handle;
  }
