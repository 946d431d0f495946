(** Hierarchical named event counters — the core of the PTLstats
    subsystem (paper §2.3/§5).

    Counters register under dotted paths ("ooo.commit.insns"); snapshots
    capture every counter at a point in simulated time, and snapshot
    subtraction yields the per-interval statistics behind the paper's
    time-lapse plots. *)

type t

(** A registered counter: one mutable cell, O(1) updates. *)
type counter

val create : unit -> t

(** Register (or look up) the counter at a path; the same path always
    returns the same counter. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** Current value at a path; 0 if never registered. *)
val get : t -> string -> int

(** All registered paths, in registration order. *)
val paths : t -> string list

(** An immutable copy of every counter, stamped with the cycle it was
    taken at. *)
type snapshot = { cycle : int; values : int array; snap_paths : string array }

val snapshot : t -> cycle:int -> snapshot

(** Increase of a path between two snapshots; counters registered after
    the older snapshot count from zero. *)
val delta : snapshot -> snapshot -> string -> int

(** Text dump of all counters whose path starts with [prefix]. *)
val dump : ?prefix:string -> t -> string

(** Zero every counter (the ptlcall [-flushstats] command). *)
val reset : t -> unit
