(** Binary encoder: instruction AST to variable-length byte sequences,
    with a short (rel8) [Jcc] form chosen when the displacement fits.
    [decode (encode i)] equals [normalize i] for every encodable
    instruction. *)

open Ptl_util

(** Immediate width in bytes for the "imm32" form at a given operand size.
   Byte and word operations take immediates of their own width. *)
val imm_bytes : W64.size -> int

(** Canonical form of an immediate at [size]: truncated to the operand width
   and sign-extended back to 64 bits, so that e.g. [mov al, 0xFF] and
   [mov al, -1] encode (and round-trip) identically. *)
val normalize_imm : W64.size -> W64.t -> W64.t

(** Whether the canonicalised [v] is encodable as a sign-extended immediate
   at [size]; only 64-bit operations can fail (use [Movabs] instead). *)
val imm_encodable : W64.size -> Int64.t -> bool

(** Encode [insn] as placed at virtual address [rip] (needed for relative
    branches; defaults to 0). [short_branches] (default true) lets the
    encoder pick the rel8 form of [Jcc] when the displacement fits; the
    assembler disables it per-instruction to break relaxation oscillation.
    Returns the raw bytes. *)
val encode : ?rip:int64 -> ?short_branches:bool -> Insn.t -> string

(** Canonical form of an instruction: immediates reduced to the
    representation the encoder actually emits. [decode (encode i)] equals
    [normalize i] for every encodable instruction; the round-trip property
    tests use it as their referee. *)
val normalize : Insn.t -> Insn.t
