(** Translation lookaside buffers: set-associative, LRU, with an optional
    second level and an optional page-directory-entry (PDE) cache — the
    K8 structures behind the paper's Table 1 DTLB row. *)

type entry = {
  vpn : int64;
  mfn : int;  (* 4K frame; for a huge entry the 2M region's base frame *)
  writable : bool;
  user : bool;
  nx : bool;
  huge : bool;  (* entry spans 2M (a PS-set PDE mapping) *)
}

(** Base virtual address covered by a tag (2M- or 4K-aligned). *)
val vaddr_of_tag : int64 -> int64

(** Build a TLB entry from a successful walk; huge translations store the
    2M base frame so one entry covers the whole region. *)
val entry_of_walk : Pagetable.translation -> entry

(** Physical address of a virtual address under an entry (both page
    sizes). *)
val paddr_of : entry -> int64 -> int

type config = {
  l1_entries : int;
  l1_ways : int;
  l2 : (int * int) option;  (* entries, ways *)
  pde_entries : int;  (* 0 = no PDE cache *)
}

(** The paper's §5 PTLsim configuration: one 32-entry TLB level. *)
val ptlsim_config : config

(** The real K8: 32-entry L1 + 1024-entry 4-way L2 + 24-entry PDE cache. *)
val k8_config : config

type t

(** [name] tags this TLB's trace events (e.g. "dtlb", "itlb"). *)
val create : ?name:string -> config -> t

type hit = L1_hit of entry | L2_hit of entry | Tlb_miss

(** Look up a virtual address; L2 hits promote into L1. *)
val lookup : t -> int64 -> hit

(** [lookup] minus the trace events: same LRU updates and L2-to-L1
    promotion, nothing recorded — the sampled-simulation warming path. *)
val lookup_quiet : t -> int64 -> hit

(** Install a translation after a page walk (fills every level and the
    PDE cache). *)
val insert : t -> int64 -> entry -> unit

(** Memory loads a page walk for this address needs: 4 without a PDE
    cache, 1 when the PDE cache covers the upper levels. *)
val walk_loads : t -> int64 -> int

(** Flush everything (CR3 reload; the K8 predates ASIDs). *)
val flush : t -> unit

(** Guard hook: internal tag/entry/LRU consistency of every level.
    Returns a violation description, or [None] when consistent. *)
val check : t -> string option

(** Guard hook: all valid L1/L2 translations as (vpn, entry) pairs, the
    vpn taken from the tag arrays. *)
val entries : t -> (int64 * entry) list

(** Checkpoint of every level's tags, entries, LRU recency and ticks.
    Restores are in place; [diff] lists every mismatch between the live
    state and a snapshot (empty = exact). *)
type snapshot

val snapshot : t -> snapshot

(** Whether a snapshot came from a TLB of this configuration (same
    per-level geometry, same levels present): the precondition of
    {!restore}. *)
val fits : t -> snapshot -> bool

val restore : t -> snapshot:snapshot -> unit
val diff : t -> snapshot -> string list
