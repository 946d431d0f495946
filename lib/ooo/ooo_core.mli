(** The out-of-order superscalar core (optionally SMT), modeled stage by
    stage as in the paper (§2.2): fetch from the basic block cache with
    branch prediction, rename through per-thread alias tables onto a
    shared physical register file, clustered issue queues with broadcast
    wakeup, a unified load/store queue, and a commit unit that enforces
    x86 instruction atomicity and precise exceptions.

    Each cycle touches only what changed: a result written at writeback
    wakes the queued consumers listed on its physical register, select
    visits only its cluster's ready set, and writeback drains one bucket
    of a completion wheel keyed by writeback cycle. Dispatch checks
    free-slot counters per cluster and per (cluster, thread).

    The per-cycle bookkeeping structures hold immediates, so storing
    into them needs no write barrier ([caml_modify]); the barrier still
    runs when an entry enters a ring or [slots], and for an entry's
    boxed [int64] fields. A
    ROB entry is named by an integer handle, [tid * rob_size] plus its
    ROB slot, and [slots] maps a handle back to its entry. The ready
    sets, the select buffer, the writeback scratch, the completion wheel
    ([wheel] heads plus [wheel_next]) and the consumer lists
    ([waiter_head] plus [wnode_next], node [handle * 4 + source]) hold
    handles; alias-table mappings are ints; [entry_state] is immediate;
    and {!Physreg} is one flat array per field. The rule for new code: a
    structure written every cycle stores ints, not entries, boxed
    [int64]s or options. ROB entries and fetch-queue records themselves
    are allocated fresh per uop, since a young allocation needs no
    barrier.

    The records stay transparent because {!Ptl_ooo.Multicore} reads the
    TLBs and hierarchy of each core, and {!Ptl_guard.Guard} (and its
    corruption tests) walk and plant faults in the ROB, the handle table
    [slots], the ready sets, the consumer lists ([waiter_head],
    [wnode_next]), the completion wheel ([wheel], [wheel_next]) and the
    physical register file's state array and free list. A handle in any
    of them that does not name an entry in the ROB is a violation. *)

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

(** Life cycle of a ROB entry. An immediate, so setting it needs no
    write barrier; a Faulted entry's fault is in its [fault] field. *)
type entry_state =
  | Waiting  (* in an issue queue, sources not all ready / not selected *)
  | Issued  (* executing; completes at writeback_cycle *)
  | Done
  | Faulted

(** Where fetch resumes after a redirect. *)
type redirect

(** One in-flight uop in a thread's reorder buffer. *)
type rob_entry = {
  uop : Uop.t;
  handle : int;  (* tid * rob_size + ROB slot: the entry's name in [slots] *)
  seq : int;
  uuid : int;  (* fetch-order id for the event trace *)
  thread : int;
  bb_rip : int64;  (* start of the basic block this uop was fetched from *)
  bb_index : int;  (* index within that block *)
  dest : int;  (* value physreg, -1 if none *)
  dest_flags : int;  (* flags physreg, -1 if none *)
  (* Alias-table mappings are ints: -1 when the architectural register
     holds the value, otherwise the physical register; an old mapping is
     -2 when the entry did not rename that register. *)
  old_rd : int;  (* previous mapping of uop.rd *)
  old_flags : int;  (* previous mapping of the flags reg *)
  src_a : int;
  src_b : int;
  src_c : int;
  src_f : int;  (* flags source when readflags *)
  mutable state : entry_state;
  mutable fault : Fault.t option;  (* written only when state is Faulted *)
  mutable writeback_cycle : int;
  mutable in_iq : int;  (* cluster index while queued, -1 otherwise *)
  mutable exec_cluster : int;  (* cluster the uop executes in *)
  (* wakeup: sources not yet written, and the first cycle at which every
     written source is visible from the entry's cluster *)
  mutable unready : int;
  mutable ready_at : int;
  mutable wb_slot : int;  (* completion-wheel cycle while Issued *)
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
}

(** A uop sitting in the fetch queue with its prediction. *)
type fetched

(** Per-hardware-thread front end, alias table, ROB and LSQ. *)
type thread_state = {
  tid : int;
  ctx : Context.t;
  rat : int array;  (* -1 or a physreg, per architectural register *)
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
  clusters : Config.cluster array;
  fu_hosts : int array array;  (* per FU class: the clusters hosting it *)
  (* Handle -> entry for every ROB slot of every thread; an empty slot
     holds a filler entry with handle -1. *)
  slots : rob_entry array;
  (* The issue queues. A queued entry claims its cluster in [in_iq];
     each cluster counts its free slots and its entries per thread. An
     entry with unwritten sources waits on those registers' consumer
     lists; once every source is written it sits in its cluster's ready
     set, kept in [seq] order. *)
  iq_free : int array;  (* per cluster *)
  iq_thread : int array;  (* per (cluster, thread): cluster * nthreads + tid *)
  (* Consumer lists are intrusive: source [k] (0 = a, 1 = b, 2 = c,
     3 = flags) of the entry with handle [h] is node [h * 4 + k]. *)
  waiter_head : int array;  (* per physreg: first node, -1 if none *)
  wnode_next : int array;  (* per node: next node on the same list, or -1 *)
  ready : int array array;  (* per cluster, [ready_len] live handles, by seq *)
  ready_len : int array;
  select_buf : int array;  (* one cluster's selection this cycle *)
  (* Completion wheel: an Issued entry waits in bucket
     [wb_slot land (Array.length wheel - 1)], a list threaded through
     [wheel_next]; [wheel_done] is the last cycle drained. *)
  wheel : int array;  (* per bucket: first handle, -1 if empty *)
  wheel_next : int array;  (* per handle: next in the same bucket, or -1 *)
  mutable wheel_done : int;
  due : int array;  (* writeback scratch, [ndue] live handles *)
  mutable ndue : int;
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
  (* L1D bank-conflict modeling: the last cycle each bank was used *)
  bank_cycle : int array;
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

(** Issue-queue consistency. Handles: each ROB entry's handle names its
    own ROB slot and maps back to it, an empty slot maps to no entry,
    and every handle in a ready set, a wheel bucket or a consumer list
    names an entry in the ROB (a stale handle is a violation). Slot
    conservation, both directions: each cluster's free-slot counter and
    per-thread counters equal a recount of the ROB entries claiming the
    cluster, and every claiming entry is Waiting. Wakeup: a queued
    entry's unready count equals its unwritten sources, it sits on each
    such source's consumer list (and every consumer-list node is such a
    source of such an entry), and it is in its cluster's ready set
    exactly when that count is zero; ready sets are in [seq] order and
    hold only Waiting, fully-written entries of that cluster.
    Completion: every wheel entry is Issued, in the bucket of its
    [wb_slot] at or after its writeback cycle and not yet drained, and
    the wheel holds exactly the Issued ROB entries. Returns a violation
    description, or None when consistent. *)
val guard_iq_check : t -> string option

(** Locks still held with every thread idle are leaked interlocks. *)
val guard_interlock_check : t -> string option
