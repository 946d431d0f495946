(** The internal micro-operation (uop) instruction set.

    Every x86lite instruction is translated into one or more uops, "similar
    to classical load-store RISC instructions" but carrying the x86-specific
    baggage the paper calls out (§2.1): per-uop operand sizes, condition
    flag subsets, unaligned loads/stores, locked memory operations, and
    SOM/EOM markers so the commit unit can enforce the atomicity of each
    x86 instruction (all uops of an instruction commit, or none do).

    The uop register space extends the 16 architectural GPRs with
    translator temporaries, the flags register, a zero register, the SSE
    registers and the x87-lite accumulator; the register alias table in the
    out-of-order core renames this entire space. *)

open Ptl_util

(* ---- uop-level architectural register numbering ---- *)

let reg_temp_base = 16 (* 16..23: translator temporaries t0..t7 *)
let reg_flags = 24
let reg_zero = 25
let reg_xmm_base = 26 (* 26..41: xmm0..xmm15 *)
let reg_st0 = 42 (* x87-lite accumulator *)
let num_arch_regs = 43
let reg_none = -1

let temp n =
  if n < 0 || n > 7 then invalid_arg "Uop.temp";
  reg_temp_base + n

let xmm n =
  if n < 0 || n > 15 then invalid_arg "Uop.xmm";
  reg_xmm_base + n

let reg_name r =
  if r = reg_none then "-"
  else if r < 16 then Ptl_isa.Regs.gpr_name r
  else if r < 24 then Printf.sprintf "t%d" (r - reg_temp_base)
  else if r = reg_flags then "flags"
  else if r = reg_zero then "zero"
  else if r < 42 then Printf.sprintf "xmm%d" (r - reg_xmm_base)
  else if r = reg_st0 then "st0"
  else Printf.sprintf "r?%d" r

(* ---- microcode assists ---- *)

(** Operations too complex (or too privileged) for the datapath: executed
    atomically at commit by context microcode, serializing the pipeline. *)
type assist =
  | A_syscall
  | A_sysret
  | A_int of int
  | A_iret
  | A_cpuid
  | A_rdtsc
  | A_rdpmc
  | A_hlt
  | A_cli
  | A_sti
  | A_pushf
  | A_popf
  | A_mov_to_cr of int
  | A_mov_from_cr of int
  | A_invlpg
  | A_ptlcall
  | A_kcall
  | A_pause

let assist_name = function
  | A_syscall -> "syscall"
  | A_sysret -> "sysret"
  | A_int n -> Printf.sprintf "int%#x" n
  | A_iret -> "iret"
  | A_cpuid -> "cpuid"
  | A_rdtsc -> "rdtsc"
  | A_rdpmc -> "rdpmc"
  | A_hlt -> "hlt"
  | A_cli -> "cli"
  | A_sti -> "sti"
  | A_pushf -> "pushf"
  | A_popf -> "popf"
  | A_mov_to_cr n -> Printf.sprintf "mov_to_cr%d" n
  | A_mov_from_cr n -> Printf.sprintf "mov_from_cr%d" n
  | A_invlpg -> "invlpg"
  | A_ptlcall -> "ptlcall"
  | A_kcall -> "kcall"
  | A_pause -> "pause"

(* ---- opcodes ---- *)

type opcode =
  (* rd <- ra (or imm when ra = reg_none) *)
  | Mov
  (* rd <- ra op rb/imm, integer ALU *)
  | Add
  | Adc
  | Sub
  | Sbb
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sar
  | Rol
  | Ror
  | Mull (* low 64 bits of product *)
  | Mulhu (* high 64 bits, unsigned *)
  | Mulhs (* high 64 bits, signed *)
  | Divqu (* (ra:rb) / rc unsigned — ra=hi, rb=lo, rc=divisor *)
  | Remqu
  | Divqs
  | Remqs
  | Neg
  | Not
  (* rd <- zero/sign extension of low [mem_size] bytes of ra *)
  | Zext
  | Sext
  (* rd <- ra + rb*scale + imm, no flags (address arithmetic) *)
  | Lea
  (* rd <- cond ? ra : rb *)
  | Sel of Ptl_isa.Flags.cond
  (* rd <- cond ? 1 : 0 *)
  | Setc of Ptl_isa.Flags.cond
  (* bit tests: CF <- bit; Bts/Btr/Btc also produce the updated word *)
  | Bt
  | Bts
  | Btr
  | Btc
  (* memory: address = ra + rb*scale + imm; St data in rc *)
  | Ld
  | St
  | Ldl (* locked load (acquires interlock) *)
  | Strel (* store releasing the interlock *)
  | Fence
  (* branches: Bru/Brc to [br_target]; Jmpr to value of ra (+ load for
     memory-indirect, done by a preceding Ld); Brnz taken when ra <> 0 *)
  | Bru
  | Brc of Ptl_isa.Flags.cond
  | Brnz
  | Brz
  | Jmpr
  (* floating point on IEEE double bit patterns *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmov
  | I2f
  | F2i
  | Fcmp (* sets ZF/PF/CF like comisd *)
  (* microcode escape *)
  | Assist of assist
  | Nop

let opcode_name = function
  | Mov -> "mov" | Add -> "add" | Adc -> "adc" | Sub -> "sub" | Sbb -> "sbb"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Sar -> "sar" | Rol -> "rol" | Ror -> "ror" | Mull -> "mull"
  | Mulhu -> "mulhu" | Mulhs -> "mulhs" | Divqu -> "divqu" | Remqu -> "remqu"
  | Divqs -> "divqs" | Remqs -> "remqs" | Neg -> "neg" | Not -> "not"
  | Zext -> "zext" | Sext -> "sext" | Lea -> "lea"
  | Sel c -> "sel." ^ Ptl_isa.Flags.cond_name c
  | Setc c -> "set." ^ Ptl_isa.Flags.cond_name c
  | Bt -> "bt" | Bts -> "bts" | Btr -> "btr" | Btc -> "btc"
  | Ld -> "ld" | St -> "st" | Ldl -> "ld.l" | Strel -> "st.rel"
  | Fence -> "fence" | Bru -> "bru" | Brc c -> "br." ^ Ptl_isa.Flags.cond_name c
  | Brnz -> "brnz" | Brz -> "brz" | Jmpr -> "jmpr" | Fadd -> "fadd" | Fsub -> "fsub"
  | Fmul -> "fmul" | Fdiv -> "fdiv" | Fmov -> "fmov" | I2f -> "i2f"
  | F2i -> "f2i" | Fcmp -> "fcmp" | Assist a -> "assist." ^ assist_name a
  | Nop -> "nop"

(* ---- the uop record ---- *)

type t = {
  op : opcode;
  size : W64.size;  (* ALU operation width *)
  rd : int;  (* destination arch reg, or reg_none *)
  ra : int;  (* source A (also memory base), or reg_none *)
  rb : int;  (* source B (also memory index), or reg_none *)
  rc : int;  (* source C (store data, third div operand), or reg_none *)
  imm : int64;  (* immediate operand / memory displacement *)
  scale : int;  (* memory index scale *)
  mem_size : W64.size;  (* load/store width; Zext/Sext source width *)
  setflags : int;  (* mask of condition-flag bits this uop produces *)
  readflags : bool;  (* consumes the flags register *)
  unaligned : bool;  (* memory access may straddle; checked at issue *)
  som : bool;  (* first uop of its x86 instruction *)
  eom : bool;  (* last uop of its x86 instruction *)
  hint_call : bool;  (* branch is a call (push return address stack) *)
  hint_ret : bool;  (* branch is a return (pop return address stack) *)
  rip : int64;  (* address of the parent x86 instruction *)
  next_rip : int64;  (* fall-through address *)
  br_target : int64;  (* taken target for Bru/Brc/Brnz *)
}

let default =
  {
    op = Nop;
    size = W64.B8;
    rd = reg_none;
    ra = reg_none;
    rb = reg_none;
    rc = reg_none;
    imm = 0L;
    scale = 1;
    mem_size = W64.B8;
    setflags = 0;
    readflags = false;
    unaligned = false;
    som = false;
    eom = false;
    hint_call = false;
    hint_ret = false;
    rip = 0L;
    next_rip = 0L;
    br_target = 0L;
  }

let is_load u = match u.op with Ld | Ldl -> true | _ -> false
let is_store u = match u.op with St | Strel -> true | _ -> false
let is_mem u = is_load u || is_store u

let is_branch u =
  match u.op with Bru | Brc _ | Brnz | Brz | Jmpr -> true | _ -> false

let is_assist u = match u.op with Assist _ -> true | _ -> false

(** Whether this uop ends a basic block (branch or serializing assist). *)
let ends_block u = is_branch u || is_assist u
