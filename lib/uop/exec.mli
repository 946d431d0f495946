(** Pure execution semantics of every uop, shared by the sequential
    functional core and the out-of-order core's ALUs (the paper's
    integrated simulator, §6.1): one definition of what each uop
    computes, so timing can never compute different values. *)

open Ptl_util

(** Arithmetic faults detected at execution (divide error = x86 #DE). *)
exception Divide_error

(** What a uop computed. *)
type outcome = {
  value : int64;  (* result for rd; effective address for Ld/St *)
  flags : int;  (* outgoing flags word *)
  taken : bool;  (* branch outcome *)
  target : int64;  (* resolved next RIP for branches *)
}

(** Execute [u] with source values [ra], [rb], [rc] and incoming [flags].
    For Ld/Ldl the [value] is the effective address (the core completes the
    load and calls {!finish_load}); for St/Strel it is also the address
    (store data is [rc]). Raises [Divide_error] for division faults. *)
val execute :
  Uop.t ->
  ra:W64.t ->
  rb:W64.t -> rc:W64.t -> flags:int -> outcome

(** Extend a raw loaded value per the load's width (loads zero-extend into
    temporaries; narrow merges are separate Mov uops). *)
val finish_load : Uop.t -> W64.t -> W64.t

(** Store data: the low [mem_size] bytes of [rc]'s value. *)
val store_data : Uop.t -> W64.t -> W64.t
