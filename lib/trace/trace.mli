(** Cycle-accurate pipeline event trace (the paper's §2.3 event-log ring
    buffer).

    Emit sites across the simulator record typed events into a bounded
    ring buffer that overwrites its oldest entries, so the most recent
    window of pipeline activity can always be reconstructed cycle by
    cycle. The module is a process-global: the disabled path at each emit
    site is exactly one branch on {!on}, with no allocation.

    Usage at an emit site:
    {[ if !Trace.on then Trace.emit ~core ~uuid ~rip Trace.Issue ]} *)

type kind =
  | Fetch
  | Rename
  | Dispatch
  | Issue
  | Forward
  | Writeback
  | Replay
  | Annul
  | Redirect
  | Flush
  | Mispredict
  | Commit      (** one committed x86 instruction *)
  | Commit_uop  (** one committed uop of that instruction *)
  | Cache_hit
  | Cache_miss
  | Prefetch
  | Tlb_hit
  | Tlb_miss
  | Bb_hit
  | Bb_miss
  | Bpred_predict
  | Bpred_update
  | Page_fault     (** demand-paging #PF resolved by the guest kernel *)
  | Tlb_shootdown  (** cross-core invalidation IPI *)
  | Pwc_hit        (** page-walk-cache hit (slot = depth) *)
  | Pwc_miss

(** Coarse event classes, the unit of [-trace-filter] selection:
    [Pipe] fetch..mispredict, [Retire] commit events, [Mem] caches,
    [Tlb], [Bb] basic-block cache, [Bpred] predictor, [Vm] virtual
    memory (page faults, shootdowns, page-walk caches). *)
type cls = Pipe | Retire | Mem | Tlb | Bb | Bpred | Vm

val class_name : cls -> string
val all_classes : cls list

(** Parse a comma-separated class list, e.g. ["pipe,commit,tlb"]. The
    empty string selects every class; unknown names raise
    [Invalid_argument]. *)
val parse_classes : string -> cls list

type event = {
  ev_cycle : int;
  ev_kind : kind;
  ev_core : int;
  ev_thread : int;
  ev_uuid : int;    (** fetch-order uop id; -1 when not uop-scoped *)
  ev_rip : int64;
  ev_slot : int;    (** ROB index / cluster / level; kind-specific *)
  ev_info : int64;  (** kind-specific payload (address, target, ...) *)
  ev_tag : string;  (** short detail: structure name, replay reason *)
}

(** When capture actually begins. *)
type trigger =
  | Immediate
  | At_cycle of int   (** begin logging at a given simulated cycle *)
  | On_mispredict     (** begin at the first mispredicted branch *)
  | On_sample
      (** begin at the first measured sampling interval (opened by the
          sampling supervisor calling {!sample_boundary}) *)

(** The one-branch gate: true iff tracing is configured. Emit sites MUST
    guard with [if !Trace.on] so the disabled path never allocates. *)
val on : bool ref

(** Arm the trace with a fresh ring of [capacity] events (default 2^20).
    [start_cycle] is sugar for [~trigger:(At_cycle n)] (an explicit
    [trigger] wins); [stop_cycle] closes the capture window; [rip]
    restricts capture to events carrying that exact RIP; [classes]
    restricts by event class. *)
val configure :
  ?capacity:int ->
  ?start_cycle:int ->
  ?stop_cycle:int ->
  ?rip:int64 ->
  ?classes:cls list ->
  ?trigger:trigger ->
  unit ->
  unit

(** Disarm tracing; also finalizes and detaches any streaming sink. *)
val disable : unit -> unit

(** Open the {!On_sample} trigger: the sampling supervisor calls this at
    the start of each measured interval; capture begins at the first one
    and latches open. A no-op under any other trigger. *)
val sample_boundary : unit -> unit

(** Drop captured events but keep the configuration armed (re-arms the
    trigger). *)
val clear : unit -> unit

(** Cores store the simulated cycle here once per step so leaf emitters
    (caches, TLBs, the predictor) need not thread it through. *)
val set_cycle : int -> unit

(** Record one event; a no-op unless {!on} (but call sites should guard
    themselves for zero disabled-path cost). Defaults: [core=0]
    [thread=0] [uuid=-1] [rip=0L] [slot=-1] [info=0L] [tag=""]. *)
val emit :
  ?core:int ->
  ?thread:int ->
  ?uuid:int ->
  ?rip:int64 ->
  ?slot:int ->
  ?info:int64 ->
  ?tag:string ->
  kind ->
  unit

(** Events accepted into the ring over the whole run (including ones
    since lost to wraparound). *)
val captured : unit -> int

(** Accepted events lost to ring wraparound. *)
val overwritten : unit -> int

(** Events currently in the window. *)
val length : unit -> int

(** Committed x86 instructions in the window, optionally restricted to
    one core model's commit [tag] (e.g. ["ooo"]). *)
val commits : ?tag:string -> unit -> int

(** One event as a single human-readable line (no trailing newline) — the
    line format of {!dump_text}, reused by divergence reports. *)
val event_to_string : event -> string

(** The most recent [n] events of the window, oldest first. *)
val recent : int -> event list

(** Human-readable event log, oldest first. *)
val dump_text : out_channel -> unit

(** CSV: one row per event. *)
val dump_csv : out_channel -> unit

(** Chrome trace-event JSON (Perfetto / chrome://tracing): one process
    per core, one track per (SMT thread, pipeline stage) pair — thread
    N's tracks occupy a contiguous tid band labeled "tN:stage", so an
    SMT core's threads group into contiguous bands — one 1-cycle
    complete event per trace event, with metadata naming the tracks,
    plus per-core counter tracks ("C" events) for page-fault and
    shootdown rates bucketed over the window. *)
val dump_chrome : out_channel -> unit

(** Output format of an incremental streaming sink. *)
type stream_format = Stream_text | Stream_csv | Stream_chrome

(** ["text"], ["csv"], ["chrome"] (also ["txt"], ["json"]). *)
val stream_format_of_name : string -> stream_format option

(** Attach an incremental sink: every accepted event (trigger and filters
    already applied) is also written to the channel immediately, in
    addition to the ring, so a crashed run still leaves a usable trace
    and a trace longer than the ring survives wraparound. Replaces any
    sink already installed (finalizing it first). Call {!stream_stop} (or
    {!disable}) before closing the channel — the Chrome writer emits its
    closing bracket there. The caller keeps ownership of the channel;
    [on_stop] runs exactly once after the format finalizer on whichever
    path tears the sink down (pass a closure closing the channel so
    abnormal exits cannot leave a truncated file). *)
val stream_to : ?on_stop:(unit -> unit) -> stream_format -> out_channel -> unit

(** Finalize and detach the streaming sink, if any. Idempotent. *)
val stream_stop : unit -> unit

(** Render per-uop timelines, one row per uop in fetch (uuid) order, one
    column per stage holding the cycle the uop reached it, with notes for
    mispredicts, annuls and replays. [rip] restricts to one instruction
    address; at most [limit] rows (default 1000) are printed. *)
val render_timeline : ?rip:int64 -> ?limit:int -> out_channel -> unit
