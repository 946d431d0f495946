(** Abstract syntax of the x86lite-64 guest instruction set.

    x86lite-64 is the repository's stand-in for real x86-64 (see DESIGN.md):
    a two-operand, variable-length CISC ISA with x86 semantics — memory
    destinations on ALU ops, condition-code flags, per-instruction operand
    sizes, LOCK and REP prefixes, x87-style stack FP and SSE-style scalar
    FP, privileged control-register moves, and the [ptlcall] breakout
    opcode 0x0f37 from the paper. Branch targets are stored as absolute
    virtual addresses; the encoder emits rip-relative displacements. *)

open Ptl_util

(** A memory operand: [base + index*scale + disp]. [scale] is 1, 2, 4 or 8. *)
type mem = {
  base : Regs.gpr option;
  index : Regs.gpr option;
  scale : int;
  disp : int64;
}

let mem ?base ?index ?(scale = 1) ?(disp = 0L) () =
  if not (List.mem scale [ 1; 2; 4; 8 ]) then invalid_arg "Insn.mem: scale";
  { base; index; scale; disp }

(** Absolute-address memory operand. *)
let mem_abs addr = mem ~disp:addr ()

(** [base + disp]. *)
let mem_bd base disp = mem ~base ~disp ()

(** Register-or-memory operand position. *)
type rm = Reg of Regs.gpr | Mem of mem

(** Generic source operand. *)
type src = RM of rm | Imm of int64

type alu = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp
type unary = Not | Neg | Inc | Dec
type shift = Shl | Shr | Sar | Rol | Ror
type muldiv = Mul | Imul1 | Div | Idiv
type bittest = Bt | Bts | Btr | Btc
type fpop = Fadd | Fsub | Fmul | Fdiv
type sse2 = Addsd | Subsd | Mulsd | Divsd

(** Shift count: immediate or the CL register. *)
type count = ImmC of int | Cl

(** Bit-test source: register or immediate bit index. *)
type bitsrc = Breg of Regs.gpr | Bimm of int

type t =
  | Nop
  | Alu of alu * W64.size * rm * src
  | Test of W64.size * rm * src
  | Mov of W64.size * rm * src
  | Movabs of Regs.gpr * int64  (* 64-bit immediate load *)
  | Lea of Regs.gpr * mem
  | Movzx of W64.size * W64.size * Regs.gpr * rm  (* dst size, src size *)
  | Movsx of W64.size * W64.size * Regs.gpr * rm
  | Unary of unary * W64.size * rm
  | Shift of shift * W64.size * rm * count
  | Imul2 of W64.size * Regs.gpr * rm
  | Muldiv of muldiv * W64.size * rm  (* implicit rax/rdx, as on x86 *)
  | Push of src
  | Pop of rm
  | Call of int64  (* absolute target *)
  | CallInd of rm
  | Ret
  | Jmp of int64
  | JmpInd of rm
  | Jcc of Flags.cond * int64
  | Setcc of Flags.cond * rm
  | Cmovcc of Flags.cond * W64.size * Regs.gpr * rm
  | Xchg of W64.size * rm * Regs.gpr
  | Xadd of W64.size * rm * Regs.gpr
  | Cmpxchg of W64.size * rm * Regs.gpr  (* implicit rax comparand *)
  | Bittest of bittest * W64.size * rm * bitsrc
  | Movs of W64.size * bool  (* string copy; bool = REP *)
  | Stos of W64.size * bool
  | Lods of W64.size * bool
  | Hlt
  | Syscall
  | Sysret
  | Int of int
  | Iret
  | Pushf
  | Popf
  | Cli
  | Sti
  | Pause
  | Ptlcall  (* 0x0f37: PTLsim breakout opcode *)
  | Kcall  (* paravirtual kernel/hypervisor service call *)
  | Rdtsc
  | Rdpmc
  | Cpuid
  | MovToCr of int * Regs.gpr
  | MovFromCr of int * Regs.gpr
  | Invlpg of mem
  | Fld of mem  (* x87-lite: push [mem] as double *)
  | Fst of mem  (* pop st0 to [mem] *)
  | Fp of fpop * mem  (* st0 <- st0 op [mem] *)
  | SseLoad of Regs.xmm * mem
  | SseStore of mem * Regs.xmm
  | SseMov of Regs.xmm * Regs.xmm
  | Sse of sse2 * Regs.xmm * Regs.xmm
  | Cvtsi2sd of Regs.xmm * Regs.gpr
  | Cvtsd2si of Regs.gpr * Regs.xmm
  | Comisd of Regs.xmm * Regs.xmm
  | Locked of t  (* LOCK prefix; validity checked by [lockable] *)

(** Whether [insn] may legally carry a LOCK prefix: a read-modify-write
    with a memory destination, as on x86. *)
let lockable = function
  | Alu ((Add | Or | Adc | Sbb | And | Sub | Xor), _, Mem _, _)
  | Unary ((Not | Neg | Inc | Dec), _, Mem _)
  | Xchg (_, Mem _, _)
  | Xadd (_, Mem _, _)
  | Cmpxchg (_, Mem _, _)
  | Bittest ((Bts | Btr | Btc), _, Mem _, _) -> true
  | _ -> false

let alu_name = function
  | Add -> "add" | Or -> "or" | Adc -> "adc" | Sbb -> "sbb"
  | And -> "and" | Sub -> "sub" | Xor -> "xor" | Cmp -> "cmp"

(** Spec-table key for an instruction: the mnemonic with operand shapes
    erased (all [Alu] forms of [Add] are one "add" row; a LOCK prefix
    shares its inner instruction's row). Two deliberate splits: the
    two-operand [Imul2] is "imul2" (its flag lattice differs from the
    one-operand widening "imul"), and string ops keep their own keys.
    Used by [lib/spec] to index declarative rows and by the conformance
    coverage report. *)
let rec mnemonic = function
  | Nop -> "nop"
  | Alu (op, _, _, _) -> alu_name op
  | Test _ -> "test"
  | Mov _ -> "mov"
  | Movabs _ -> "movabs"
  | Lea _ -> "lea"
  | Movzx _ -> "movzx"
  | Movsx _ -> "movsx"
  | Unary (u, _, _) -> unary_name u
  | Shift (s, _, _, _) -> shift_name s
  | Imul2 _ -> "imul2"
  | Muldiv (m, _, _) -> muldiv_name m
  | Push _ -> "push"
  | Pop _ -> "pop"
  | Call _ | CallInd _ -> "call"
  | Ret -> "ret"
  | Jmp _ | JmpInd _ -> "jmp"
  | Jcc _ -> "jcc"
  | Setcc _ -> "setcc"
  | Cmovcc _ -> "cmovcc"
  | Xchg _ -> "xchg"
  | Xadd _ -> "xadd"
  | Cmpxchg _ -> "cmpxchg"
  | Bittest (b, _, _, _) -> bittest_name b
  | Movs _ -> "movs"
  | Stos _ -> "stos"
  | Lods _ -> "lods"
  | Hlt -> "hlt"
  | Syscall -> "syscall"
  | Sysret -> "sysret"
  | Int _ -> "int"
  | Iret -> "iret"
  | Pushf -> "pushf"
  | Popf -> "popf"
  | Cli -> "cli"
  | Sti -> "sti"
  | Pause -> "pause"
  | Ptlcall -> "ptlcall"
  | Kcall -> "kcall"
  | Rdtsc -> "rdtsc"
  | Rdpmc -> "rdpmc"
  | Cpuid -> "cpuid"
  | MovToCr _ -> "mov_to_cr"
  | MovFromCr _ -> "mov_from_cr"
  | Invlpg _ -> "invlpg"
  | Fld _ -> "fld"
  | Fst _ -> "fst"
  | Fp (f, _) -> fpop_name f
  | SseLoad _ -> "sseload"
  | SseStore _ -> "ssestore"
  | SseMov _ -> "ssemov"
  | Sse (s, _, _) -> sse2_name s
  | Cvtsi2sd _ -> "cvtsi2sd"
  | Cvtsd2si _ -> "cvtsd2si"
  | Comisd _ -> "comisd"
  | Locked i -> mnemonic i

and unary_name = function Not -> "not" | Neg -> "neg" | Inc -> "inc" | Dec -> "dec"

and shift_name = function
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Rol -> "rol" | Ror -> "ror"

and muldiv_name = function
  | Mul -> "mul" | Imul1 -> "imul" | Div -> "div" | Idiv -> "idiv"

and bittest_name = function Bt -> "bt" | Bts -> "bts" | Btr -> "btr" | Btc -> "btc"

and fpop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

and sse2_name = function
  | Addsd -> "addsd" | Subsd -> "subsd" | Mulsd -> "mulsd" | Divsd -> "divsd"
