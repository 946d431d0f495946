(** The basic block cache: pre-decoded uop sequences keyed by virtual RIP,
    physical frame and context bits, with self-modifying-code
    invalidation (paper §2.1). Performance-only: it never changes the
    architecturally visible behaviour of the machine. *)

type key = { krip : int64; kmfn : int; kkernel : bool }

type bb = {
  key : key;
  uops : Uop.t array;
  insn_count : int;
  byte_len : int;
  mfns : int list;  (* every frame the block's instruction bytes touch *)
  fallthrough_rip : int64;
  terminated : bool;  (* ends in a branch/assist vs a size-limit cut *)
}

type t

val create : ?max_insns:int -> ?max_uops:int -> Ptl_stats.Statstree.t -> t

(** Look up, building and caching on miss. *)
val lookup :
  t ->
  rip:int64 ->
  kernel:bool ->
  fetch:(int64 -> int) ->
  mfn_of:(int64 -> int) ->
  bb

(** A committed store hit this frame: invalidates its blocks and returns
    true when the caller must flush its pipeline (the SMC protocol). *)
val store_committed : t -> int -> bool

val clear : t -> unit
