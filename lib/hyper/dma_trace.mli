(** Interrupt and DMA trace recording and injection (paper §4.2): record
    externally-generated events (timestamp, interrupt vector, DMA'd
    bytes) during one run, then replay them cycle-exactly against a
    restored checkpoint for deterministic, repeatable simulation of
    external bus traffic. *)

type event = {
  at_cycle : int;
  vector : int option;
  dma : (int * string) list;  (* (paddr, bytes) *)
}

type trace

val create : unit -> trace

(** Record an event at the current virtual time. *)
val record :
  trace -> Ptl_arch.Env.t -> ?vector:int -> ?dma:(int * string) list -> unit -> unit

val length : trace -> int

(** A replay cursor over a trace. *)
type injector

val injector : trace -> injector
val pending : injector -> int
val next_cycle : injector -> int option

(** Fire every event whose timestamp has been reached: perform its DMA
    writes and raise its interrupt. Cheap; call regularly. *)
val pump : injector -> Ptl_arch.Env.t -> Ptl_arch.Context.t -> unit
