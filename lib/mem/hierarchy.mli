(** The per-core cache hierarchy (paper §2.2): L1 I and D, unified L2,
    optional L3, an MSHR table that merges overlapping misses to a line,
    and an optional next-line prefetcher. Accesses return a latency in
    cycles. The record is transparent because the guard's corruption
    tests plant stale MSHR entries and duplicate tags in it. *)

module Stats := Ptl_stats.Statstree

(** Geometry of every level plus memory latency and MSHR count. *)
type config = {
  l1d : Cache.config;
  l1i : Cache.config;
  l2 : Cache.config;
  l3 : Cache.config option;
  mem_latency : int;
  mshrs : int;
  prefetch_next_line : bool;
}

(** The paper's §5 configuration of PTLsim-as-K8: 64 KB 2-way L1 D and I,
    1 MB 16-way L2 10 cycles away, no L3, memory 112 cycles away, no
    prefetch (PTLsim had none — one source of its Table 1 L1-miss delta). *)
val k8_ptlsim : config

(** The reference-silicon configuration: same geometry plus the K8's
    hardware prefetcher. *)
val k8_silicon : config

(** One core's hierarchy. *)
type t = {
  config : config;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t option;
  (* line paddr -> cycle at which the fill completes *)
  mshr : (int, int) Hashtbl.t;
  (* no entry of [mshr] completes before this cycle ([max_int] when it
     is empty): expiry skips the table until then, so a direct insert
     into [mshr] that completes earlier must lower it *)
  mutable mshr_next : int;
  loads : Stats.counter;
  stores : Stats.counter;
  ifetches : Stats.counter;
  prefetches : Stats.counter;
  mshr_merges : Stats.counter;
  (* Optional extra latency charged on misses that must consult other
     cores (installed by the multicore coherence layer). *)
  mutable remote_penalty : paddr:int -> write:bool -> int;
  (* Upgrade penalty on write hits to lines other cores may share. *)
  mutable remote_write_hit : paddr:int -> int;
}

(** A cold hierarchy counting its statistics under [prefix] (default ["mem"]). *)
val create : ?prefix:string -> Stats.t -> config -> t

(** Install the extra latency a miss pays to consult other cores (the
    multicore coherence layer's hook; zero by default). *)
val set_remote_penalty : t -> (paddr:int -> write:bool -> int) -> unit

(** Install the upgrade penalty of a write hit to a possibly shared line. *)
val set_remote_write_hit : t -> (paddr:int -> int) -> unit

(** The L1 data cache. *)
val l1d : t -> Cache.t

(** Functional warming: touch the hierarchy as [load]/[store]/[ifetch]
    would, updating tags, LRU and dirty state only — no latency, no MSHR
    traffic, no statistics, no trace events. *)
val warm_load : t -> paddr:int -> unit

(** {!warm_load} for a store: the line ends dirty. *)
val warm_store : t -> paddr:int -> unit

(** {!warm_load} through the L1 instruction cache. *)
val warm_ifetch : t -> paddr:int -> unit

(** Timed data load; returns latency in cycles. *)
val load : t -> cycle:int -> paddr:int -> int

(** Timed data store (write-allocate, write-back); returns latency. *)
val store : t -> cycle:int -> paddr:int -> int

(** Timed instruction fetch; returns latency. *)
val ifetch : t -> cycle:int -> paddr:int -> int

(** Invalidate a line everywhere (coherence, SMC handling). *)
val invalidate_line : t -> int -> unit

(** Checkpoint of every cache level plus the MSHR table. The coherence
    callbacks ([remote_penalty] / [remote_write_hit]) are installation
    state, not contents, and stay with the live hierarchy. *)
type snapshot

(** Capture every level and the MSHR table. *)
val snapshot : t -> snapshot

(** Whether [snapshot] came from a hierarchy of this geometry (every
    cache fits, same levels present) — the precondition of {!restore}. *)
val fits : t -> snapshot -> bool

(** Overwrite the live state with a snapshot that {!fits}. *)
val restore : t -> snapshot:snapshot -> unit

(** Compare the live hierarchy against a snapshot; returns one line per
    mismatch across every cache level and the MSHR table. *)
val diff : t -> snapshot -> string list

(** Structural consistency of every cache level plus the MSHR table. *)
val check : t -> cycle:int -> string option
