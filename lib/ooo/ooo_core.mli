(** The out-of-order superscalar core (optionally SMT), modeled stage by
    stage as in the paper (§2.2): fetch from the basic block cache with
    branch prediction, rename through per-thread alias tables onto a
    shared physical register file, clustered collapsing issue queues,
    a unified load/store queue, and a commit unit that enforces x86
    instruction atomicity and precise exceptions.

    The records stay transparent because {!Ptl_ooo.Multicore} reads the
    TLBs and hierarchy of each core, and {!Ptl_guard.Guard} (and its
    corruption tests) walk and plant faults in the ROB and issue
    queues. *)

open Ptl_util

module Uop := Ptl_uop.Uop
module Bbcache := Ptl_uop.Bbcache
module Context := Ptl_arch.Context
module Fault := Ptl_arch.Fault
module Env := Ptl_arch.Env
module Tlb := Ptl_mem.Tlb
module Pwc := Ptl_mem.Pwc
module Hierarchy := Ptl_mem.Hierarchy
module Predictor := Ptl_bpred.Predictor
module Stats := Ptl_stats.Statstree

(** One alias-table mapping: where an architectural register's value
    lives. *)
type rat_entry

(** Life cycle of a ROB entry. *)
type entry_state =
  | Waiting  (* in an issue queue, sources not all ready / not selected *)
  | Issued  (* executing; completes at writeback_cycle *)
  | Done
  | Faulted of Fault.t

(** Where fetch resumes after a redirect. *)
type redirect

(** One in-flight uop in a thread's reorder buffer. *)
type rob_entry = {
  uop : Uop.t;
  seq : int;
  uuid : int;  (* fetch-order id for the event trace *)
  thread : int;
  bb_rip : int64;  (* start of the basic block this uop was fetched from *)
  bb_index : int;  (* index within that block *)
  dest : int;  (* value physreg, -1 if none *)
  dest_flags : int;  (* flags physreg, -1 if none *)
  old_rd : (int * rat_entry) option;  (* previous mapping of uop.rd *)
  old_flags : rat_entry option;  (* previous mapping of the flags reg *)
  src_a : rat_entry;
  src_b : rat_entry;
  src_c : rat_entry;
  src_f : rat_entry;  (* flags source when readflags *)
  mutable state : entry_state;
  mutable writeback_cycle : int;
  mutable in_iq : int;  (* cluster index while queued, -1 otherwise *)
  mutable exec_cluster : int;  (* cluster the uop executes in *)
  mutable result : int64;
  mutable rflags : int;
  (* branch resolution *)
  pred_taken : bool;
  pred_target : int64;
  ras_ck : Predictor.ras_checkpoint option;
  mutable taken : bool;
  mutable target : int64;
  mutable mispredicted : bool;
  (* memory *)
  mutable vaddr : int64;
  mutable paddr : int;
  mutable addr_valid : bool;
  mutable store_data : int64;
  mutable locked_acquired : bool;
  mutable replays : int;
  (* replayed uops re-enter selection only after a short delay, so a
     replay loop cannot monopolize an issue port and starve other
     (SMT) threads' ready uops *)
  mutable retry_cycle : int;
  (* the fault uop synthesized at fetch carries its fault here *)
  fetch_fault : Fault.t option;
}

(** A uop sitting in the fetch queue with its prediction. *)
type fetched

(** An occupied issue-queue slot. *)
type iq_slot = { slot_rob : rob_entry }

(** Per-hardware-thread front end, alias table, ROB and LSQ. *)
type thread_state = {
  tid : int;
  ctx : Context.t;
  rat : rat_entry array;
  rob : rob_entry Ring.t;
  lsq : rob_entry Ring.t;
  fetchq : fetched Ring.t;
  mutable fetch_rip : int64;
  mutable fetch_bb : Bbcache.bb option;
  mutable fetch_bb_index : int;
  mutable fetch_stall_until : int;
  mutable fetch_enabled : bool;  (* false after a fetch fault / assist until redirect *)
  mutable redirect : (int * redirect) option;  (* effective cycle, where *)
  mutable last_fetch_line : int;
  mutable tlb_gen_seen : int;
  mutable last_progress : int;  (* watchdog: last cycle with commit progress *)
}

(** One core: its threads plus the structures they share. *)
type t = {
  config : Config.t;
  env : Env.t;
  core_id : int;
  prefix : string;  (* stats / trace namespace, e.g. "ooo" *)
  threads : thread_state array;
  prf : Physreg.t;
  iqs : iq_slot option array array;  (* per cluster, collapsing queue *)
  bbcache : Bbcache.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  bpred : Predictor.t;
  interlock : Interlock.t;
  mutable seq_counter : int;
  mutable uuid_counter : int;  (* fetch-order trace ids *)
  mutable fetch_round : int;  (* SMT round-robin pointer *)
  (* per-cycle bank occupancy for L1D bank-conflict modeling *)
  mutable banks_cycle : int;
  mutable banks_used : int list;
  (* counters *)
  c_cycles : Stats.counter;
  c_insns : Stats.counter;
  c_uops : Stats.counter;
  c_triads : Stats.counter;
  c_loads : Stats.counter;
  c_stores : Stats.counter;
  c_branches : Stats.counter;
  c_cond_branches : Stats.counter;
  c_mispredicts : Stats.counter;
  c_dtlb_misses : Stats.counter;
  c_dtlb_accesses : Stats.counter;
  c_itlb_misses : Stats.counter;
  c_replays : Stats.counter;
  c_bank_conflicts : Stats.counter;
  c_flushes : Stats.counter;
  c_assists : Stats.counter;
  c_faults : Stats.counter;
  c_irqs : Stats.counter;
  c_smc_flushes : Stats.counter;
  c_kernel_cycles : Stats.counter;
  c_user_cycles : Stats.counter;
  c_idle_cycles : Stats.counter;
  c_hoist_violations : Stats.counter;
}

(** A core running [contexts] (one per SMT thread) on [env].
    [prefix] (default ["ooo"]) namespaces its statistics and trace events;
    [interlock], [bbcache] and [uarch] are shared with other cores when
    given, fresh otherwise. *)
val create :
  ?core_id:int ->
  ?prefix:string ->
  ?interlock:Interlock.t ->
  ?bbcache:Bbcache.t ->
  ?uarch:Uarch.t -> Config.t -> Env.t -> Context.t array -> t

(** Advance the core by one cycle (the driver owns env.cycle). *)
val step : t -> unit

(** Every thread halted with no deliverable interrupt. *)
val all_idle : t -> bool

(** Standalone run loop for a single core: advances env.cycle itself.
    Stops when [max_cycles] elapse or every thread is idle with no
    pending interrupt (deadlock-free idle). *)
val run : t -> max_cycles:int -> int

(** x86 instructions committed so far, over all threads. *)
val insns : t -> int

(** ROB age ordering: per-thread sequence numbers must be strictly
    increasing oldest-to-youngest. Returns a violation, or None. *)
val guard_rob_order_check : t -> string option

(** LSQ consistency: age-ordered, memory uops only, and every entry
    still present in its thread's ROB (a dangling LSQ entry survives its
    own annulment). Returns a violation, or None. *)
val guard_lsq_check : t -> string option

(** Visit every physical register the pipeline currently references:
    RAT mappings, in-flight destinations, and the old mappings held for
    commit-time release (sources are always a subset of these but are
    included for the dangling-reference check). *)
val guard_iter_referenced : t -> (int -> unit) -> unit

(** Issue-queue slot conservation, both directions: every occupied slot
    holds a Waiting entry that claims this cluster; every ROB entry
    claiming a queue slot occupies exactly one; and per-cluster occupied
    slots equal per-cluster ROB claimers (so a stale annulled entry
    cannot hide in a slot — the counts would disagree). Returns a
    violation description, or None when consistent. *)
val guard_iq_check : t -> string option

(** Locks still held with every thread idle are leaked interlocks. *)
val guard_interlock_check : t -> string option
