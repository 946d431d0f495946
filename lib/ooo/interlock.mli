(** The interlock controller for LOCK-prefixed instructions (paper §4.4),
    shared by all SMT threads of a core and by all cores.

    A locked load (ld.l) acquires the lock on a word-aligned physical
    address; the matching releasing store (st.rel) drops it at commit.
    Plain loads/stores to an interlocked address replay until release.
    Starvation control: locks are non-recursive, a contended release
    enters a short cooldown (plain accesses exempt), and waiters are
    granted FIFO reservations with expiry — the fairness half of the
    paper's "deadlock prevention schemes". *)

module Int_tbl := Ptl_util.Int_tbl

type owner = { core : int; thread : int; mutable was_contended : bool }

type t = {
  locks : owner Int_tbl.t;
  cooldown : int Int_tbl.t;
  waiters : (int * int) list Int_tbl.t;
  reserved : (int * int * int) Int_tbl.t;
  acquires : Ptl_stats.Statstree.counter;
  contended : Ptl_stats.Statstree.counter;
  mutable trace_enabled : bool;
  mutable trace : string list;
}

val create : Ptl_stats.Statstree.t -> t

(** Debug event log. When [trace_enabled] is false nothing is
    formatted: the arguments are evaluated but no string is built and
    no [%a] printer is called. *)
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
