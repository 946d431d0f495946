(** The interlock controller for LOCK-prefixed instructions (paper §4.4),
    shared by all SMT threads of a core and by all cores.

    A locked load (ld.l) acquires the lock on a word-aligned physical
    address; the matching releasing store (st.rel) drops it at commit.
    Plain loads/stores to an interlocked address replay until release.
    Starvation control: locks are non-recursive, a contended release
    enters a short cooldown (plain accesses exempt), and waiters are
    granted FIFO reservations with expiry — the fairness half of the
    paper's "deadlock prevention schemes". *)

type owner = { core : int; thread : int; mutable was_contended : bool }

type t = {
  locks : (int, owner) Hashtbl.t;
  cooldown : (int, int) Hashtbl.t;
  waiters : (int, (int * int) list) Hashtbl.t;
  reserved : (int, int * int * int) Hashtbl.t;
  acquires : Ptl_stats.Statstree.counter;
  contended : Ptl_stats.Statstree.counter;
  mutable trace_enabled : bool;
  mutable trace : string list;
}

val create : Ptl_stats.Statstree.t -> t

(** Debug event log (no cost when [trace_enabled] is false). *)
val trace : t -> ('a, unit, string, unit) format4 -> 'a

(** Try to acquire the interlock for (core, thread) at the given cycle. *)
val acquire : t -> cycle:int -> core:int -> thread:int -> paddr:int -> bool

(** Release (owner only); a contended hold enters cooldown and hands a
    reservation to the oldest waiter. *)
val release : t -> cycle:int -> core:int -> thread:int -> paddr:int -> unit

(** Release everything held by (core, thread) — pipeline flush path. *)
val release_all : t -> cycle:int -> core:int -> thread:int -> unit

(** Whether someone other than (core, thread) holds the address: plain
    loads and stores touching it must replay. *)
val locked_by_other : t -> core:int -> thread:int -> paddr:int -> bool

val count : t -> int
