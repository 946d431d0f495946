(** Set-associative cache tag array with banking, write-back dirty state
    and pluggable replacement — the building block of {!Hierarchy}. Data
    lives in guest physical memory; this models hits, misses, evictions,
    dirty write-backs and bank conflicts (the K8's 8-banked pseudo
    dual-ported L1D, paper §5). *)

type replacement = Lru | Random_repl | Fifo

type config = {
  name : string;
  size_bytes : int;
  line_size : int;
  ways : int;
  latency : int;  (* hit latency, cycles *)
  banks : int;  (* 1 = no banking *)
  replacement : replacement;
}

(** The paper's §5 geometries: 64 KB 2-way L1D (8 banks) / L1I, 1 MB
    16-way L2. *)
val k8_l1d : config

val k8_l1i : config
val k8_l2 : config

type t

val create : ?stats_prefix:string -> Ptl_stats.Statstree.t -> config -> t

val line_addr : t -> int -> int

(** Bank touched by an access (banks divide lines along 8-byte words). *)
val bank_of : t -> int -> int

(** Non-destructive presence test. *)
val probe : t -> int -> bool

type access_result =
  | Hit
  | Miss of { writeback : int option }
      (** allocated; the dirty victim's address needs writing back *)

(** Access (allocating on miss); [write] marks the line dirty. *)
val access : t -> int -> write:bool -> access_result

(** Functional warming: update tag/LRU/dirty state as [access] would
    (allocating on a miss) with no statistics and no trace events. Used
    by the sampled-simulation fast-forward phase. *)
val warm : t -> int -> write:bool -> unit

(** Insert a line without counting an access (prefetch fill). *)
val fill : t -> int -> unit

(** Invalidate a line; true when it was present and dirty. *)
val invalidate : t -> int -> bool

(** Configured hit latency (cycles). *)
val latency : t -> int

(** Guard hook: tag/LRU structural consistency (no duplicate tags in a
    set, no garbage tags, no recency stamp from the future). Returns a
    violation description, or [None] when consistent. *)
val check : t -> string option

(** Planted-corruption hook for guard self-tests: duplicate the tag of
    the first valid line into another way of its set. Returns false when
    no set holds a valid line with a free second way. *)
val debug_duplicate_tag : t -> bool

(** Checkpoint of the tag array, replacement tick and replacement-RNG
    cursor (statistics stay with the owning tree). Restores are in
    place; [diff] lists every mismatch between the live state and a
    snapshot (empty = exact), for the checkpoint round-trip harness. *)
type snapshot

val snapshot : t -> snapshot

(** Whether a snapshot came from a cache of this geometry (same set
    count and associativity): the precondition of {!restore}. Replays
    under a different geometry (design-space sweep legs) check this and
    start the cache cold instead. *)
val fits : t -> snapshot -> bool

val restore : t -> snapshot:snapshot -> unit
val diff : t -> snapshot -> string list

(** Planted corruption for round-trip self-tests: refresh the LRU stamp
    of the first valid line. False when the cache is empty. *)
val debug_touch_lru : t -> bool
