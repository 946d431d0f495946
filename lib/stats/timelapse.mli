(** Periodic statistics snapshots and derived per-interval series — the
    machinery behind the paper's Figures 2 and 3 (snapshots every 2.2M
    cycles, per-interval rates). *)

type t

(** [create stats ~interval] snapshots every [interval] cycles (> 0). *)
val create : Statstree.t -> interval:int -> t

(** Call with the current cycle; takes snapshots on schedule. *)
val tick : t -> cycle:int -> unit

(** Force a final snapshot (end of run / ptlcall -snapshot). Idempotent
    on an exact interval boundary: when a snapshot at this cycle already
    exists, no duplicate zero-length interval is appended. *)
val finish : t -> cycle:int -> unit

(** Per-interval increases of a counter path. *)
val series : t -> string -> int list

(** Per-interval delta(num)/delta(den), 0 where the denominator did not
    move. *)
val ratio_series : t -> string -> string -> float list
