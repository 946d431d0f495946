(** Microcode assists: the serialized routines behind complex and
    privileged instructions, plus precise exception and interrupt
    delivery (building stack frames, reading the IDT, switching to
    kernel mode; paper §2.1). Assists run at commit with the pipeline
    drained. *)

module Uop := Ptl_uop.Uop

(** A fault during exception delivery that cannot itself be delivered:
    the VCPU is dead. *)
exception Triple_fault of string

(** Deliver an architectural fault raised by a uop of the instruction at
    [fault.at_rip]; the instruction restarts (or the handler fixes up). *)
val deliver_fault :
  Env.t -> Context.t -> Fault.t -> unit

(** Try to deliver one pending external interrupt at an instruction
    boundary. Returns true if control was redirected. *)
val try_deliver_irq : Env.t -> Context.t -> bool

(** Execute the assist of uop [u]. The assist performs the whole
    architectural effect of its instruction, including the RIP update. May
    raise [Fault.Guest_fault] (delivered by the caller's commit logic). *)
val run : Env.t -> Context.t -> Uop.t -> Uop.assist -> unit
