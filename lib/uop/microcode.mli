(** The x86lite-to-uop translator ("microcode"): each instruction becomes
    1 to 8 uops bracketed by SOM/EOM markers; LOCKed read-modify-writes
    use the locked-load and releasing-store uops of the interlock
    controller (paper §4.4), REP strings become an interruptible
    uop-level loop, and privileged or complex operations become
    serializing assists. *)

module Insn := Ptl_isa.Insn

(** Raised for instruction forms the microcode declines to implement
    (cores convert this into the #UD exception). Currently only 8-bit
    divide, which no modern compiler emits. *)
exception Unimplemented of string

(** The most uops one instruction translates into. Every translation
    has between 1 and [max_uops] uops ({!translate} raises
    [Invalid_argument] otherwise), and within one instruction each uop
    runs at most once: a taken branch ends the instruction. *)
val max_uops : int

(** Translate [insn] at [rip] with fall-through [next_rip] into its uop
    sequence. *)
val translate : Insn.t -> rip:int64 -> next_rip:int64 -> Uop.t array
