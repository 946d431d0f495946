(** Multi-core cache coherence: the paper's "instant visibility" model
    (no delay on line movement between cores), and the MOESI model with
    real transfer cost it leaves as future work (§4.4, §7). A directory
    tracks each line's state per core and charges latency for
    cache-to-cache transfers and invalidations; the multicore driver
    installs the penalties into each core's hierarchy. *)

module Stats := Ptl_stats.Statstree

(** [Instant] tracks and charges nothing; [Moesi] runs the directory. *)
type mode = Instant | Moesi of { transfer_latency : int; invalidate_latency : int }

(** Per-core MOESI state of one line. *)
type state = M | O | E | S | I

(** The coherence directory of one machine. *)
type t

(** A directory over [ncores] cores with [line_size]-byte lines. *)
val create : Stats.t -> mode:mode -> ncores:int -> line_size:int -> t

(** Latency penalty (cycles) for [core] missing on [paddr]. Updates the
    directory per the MOESI protocol. *)
val miss_penalty : t -> core:int -> paddr:int -> write:bool -> int

(** Hits on writes still need an upgrade if the line is shared. Returns the
    penalty and whether other copies were invalidated. *)
val write_hit_penalty : t -> core:int -> paddr:int -> int

(** Drop a core's copy (eviction). *)
val note_evict : t -> core:int -> paddr:int -> unit

(** [core]'s state for the line holding [paddr] (I when absent): the
    per-line view the {!check_invariants} referee reasons about. *)
val state : t -> core:int -> paddr:int -> state

(** Invariant check for tests: at most one M/E owner, M/E exclusive with
    any other non-I state; O coexists only with S/I. *)
val check_invariants : t -> bool
