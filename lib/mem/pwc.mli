(** Page-walk caches: per-level translation caches inside the hardware
    walker. Each of the three upper levels of the 4-level tree gets a
    fully associative LRU cache from a virtual-address prefix to the
    frame of the next-level table; a hit at depth [d] leaves [d + 1]
    walk loads. Like a TLB it joins the uarch snapshot/diff/restore
    family so sampled and fleet replay stay bit-identical. *)

(** One core's walk caches. *)
type t

(** Empty caches of [entries] entries per depth; [name] labels diff lines. *)
val create : ?name:string -> entries:int -> unit -> t

(** Deepest hit for [vaddr]: [Some depth] (0 = one walk load left), or
    [None]. Updates LRU state but no counters or trace events (functional
    warming; {!loads_left} is the counted lookup). *)
val lookup_quiet : t -> int64 -> int option

(** Remember the tables a successful walk traversed. [pte_addrs] is the
    walk's load list, root first (4 loads for a 4K mapping, 3 for a 2M
    leaf): the table holding load [i > 0] is cacheable at depth
    [len - 1 - i]. The root table (CR3) is not cached. *)
val insert : t -> int64 -> pte_addrs:int list -> unit

(** Walk loads left after consulting the PWC for a walk that would
    otherwise issue [walk_len] loads ([walk_len] = 4, or 3 for a huge
    mapping; a PDE-cache short-circuit may already have cut it to 1). *)
val loads_left : t -> int64 -> walk_len:int -> int

(** Drop every entry (CR3 write, full TLB flush). *)
val flush : t -> unit

(** Checkpoint of every depth's tags, frames and LRU state. *)
type snapshot

(** Capture the caches. *)
val snapshot : t -> snapshot

(** Whether [snapshot] came from a PWC of this geometry. *)
val fits : t -> snapshot -> bool

(** Overwrite the caches with a snapshot that {!fits}. *)
val restore : t -> snapshot:snapshot -> unit

(** Every mismatch between the live state and a snapshot; empty = exact. *)
val diff : t -> snapshot -> string list

(** All valid entries as (depth, prefix, table mfn) triples — the guard's
    PWC↔pagetable agreement check walks these. *)
val entries : t -> (int * int64 * int) list
