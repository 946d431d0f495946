(** Deterministic random program generator for differential fuzzing:
    x86lite-64 programs weighted over the decoder's opcode space (flag
    chains, unaligned memory, branches and bounded loops, REP strings,
    LOCKed read-modify-writes, x87/SSE), safe to run bare on every core
    model, with a slot structure the shrinker can cut. *)

module Rng := Ptl_util.Rng
module Insn := Ptl_isa.Insn
module Asm := Ptl_isa.Asm

(** Instruction classes the generator draws from. *)
type cls = Alu | Mem | Branch | Strings | Lock | Muldiv | Fp | Stack | Misc

(** Every class, in declaration order. *)
val all_classes : cls list

(** Lower-case class name, as {!parse_classes} reads it. *)
val cls_name : cls -> string

(** Parse a comma-separated class list, e.g. ["alu,mem,branch"]. The empty
    string selects every class; unknown names raise [Invalid_argument]. *)
val parse_classes : string -> cls list

(** One generated unit: an instruction bundle, loop or call. *)
type slot

(** A generated program. *)
type program = {
  slots : (int * slot) array;  (* (original slot id, bundle) *)
  leaves : Insn.t list array;  (* leaf function bodies ([ret] appended) *)
}

(** Start of the scratch memory window the programs use. *)
val scratch_base : int64

(** Bytes of scratch memory the generated programs read and write (and
    the harness compares); the stack lives above this window. *)
val scratch_bytes : int

(** Generate a [len]-slot program drawing from [classes], consuming
    randomness only from [rng] (so one seed fully determines the
    program). *)
val generate : Rng.t -> classes:cls list -> len:int -> program

(** Static instructions in a slot as placed in the program (loop and call
    overheads included). *)
val slot_insns : slot -> int

(** Assemble a program to a flat image at the code base. Branch targets
    relink to the next surviving slot (or the exit), so any sub-array of
    slots assembles to a valid terminating program — the property
    delta-debugging relies on. *)
val build : program -> Asm.image

(** Keep only the slots passing [keep] (by position), preserving original
    ids — the shrinking projection. *)
val with_slots : program -> (int * slot) array -> program

(** Disassemble an assembled image back into addressed text lines by
    linear decode walk (the image is pure code, so the walk is total for
    any program the generator can produce). *)
val listing : Asm.image -> string list

(** Static instruction count of a program (prologue and [hlt] included). *)
val insn_count : program -> int
