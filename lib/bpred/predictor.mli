(** Branch prediction (paper §2.2): configurable direction predictors
    (bimodal, gshare, hybrid, saturating counters), a branch target
    buffer, and a checkpointable return address stack. Direction history
    trains at commit; the RAS updates speculatively at fetch and repairs
    from checkpoints on misprediction. *)

type direction_config =
  | Always_taken
  | Saturating of int  (* table bits *)
  | Bimodal of int
  | Gshare of { table_bits : int; history_bits : int }
  | Hybrid of { table_bits : int; history_bits : int; chooser_bits : int }

type config = {
  direction : direction_config;
  btb_entries : int;
  btb_ways : int;
  ras_entries : int;
}

(** The paper's PTLsim-as-K8 predictor: 16K-entry gshare. *)
val k8_ptlsim : config

(** The reference-silicon variant (see EXPERIMENTS.md on the mispredict
    row). *)
val k8_silicon : config

type t

val create : ?prefix:string -> Ptl_stats.Statstree.t -> config -> t

(** Predict the direction of the conditional branch at [rip]. *)
val predict_cond : t -> rip:int64 -> bool

(** Train at commit; [mispredicted] feeds the misprediction counter. *)
val update_cond : t -> rip:int64 -> taken:bool -> mispredicted:bool -> unit

(** Functional warming (sampled simulation): the architectural state
    changes of a predict/update round — direction tables, global history,
    BTB entry and recency, RAS depth — with no statistics and no trace
    events. *)
val warm_cond : t -> rip:int64 -> taken:bool -> unit

val warm_target : t -> rip:int64 -> target:int64 -> unit
val warm_ras : t -> call:bool -> ret:bool -> next_rip:int64 -> unit

(** BTB: predicted target of the branch at [rip], if cached. *)
val predict_target : t -> rip:int64 -> int64 option

val update_target : t -> rip:int64 -> target:int64 -> unit

(** Return address stack, speculative with checkpoint/undo. *)
type ras_checkpoint

val ras_push : t -> int64 -> unit
val ras_pop : t -> int64 option
val ras_checkpoint : t -> ras_checkpoint
val ras_restore : t -> ras_checkpoint -> unit

(** Checkpoint of every table: direction counters, chooser, bimodal,
    global history, BTB (tags/targets/recency/tick) and the RAS with its
    cursor. Restores are in place; [diff] lists every mismatch between
    the live state and a snapshot (empty = exact). *)
type snapshot

val snapshot : t -> snapshot

(** Whether a snapshot came from a predictor of this configuration
    (every table the same size): the precondition of {!restore}. *)
val fits : t -> snapshot -> bool

val restore : t -> snapshot:snapshot -> unit
val diff : t -> snapshot -> string list
