(** A thin DSL over the assembler for writing guest programs.

    All the benchmark workloads (the rsync/ssh pipeline, the
    microbenchmarks, the SMT lock-contention kernels) are real guest
    programs written through these helpers. Conventions: arguments in
    rdi/rsi/rdx, results in rax, rbx/rbp/r12..r15 callee-saved, syscalls
    as per {!Ptl_kernel.Abi}. *)

open Ptl_util
module Insn = Ptl_isa.Insn
module Regs = Ptl_isa.Regs
module Asm = Ptl_isa.Asm
module Flags = Ptl_isa.Flags
module Abi = Ptl_kernel.Abi

type t = { a : Asm.t; mutable uid : int }

let create ?(base = Abi.user_code_base) () = { a = Asm.create ~base (); uid = 0 }

let assemble t = Asm.assemble t.a

(** Fresh local label. *)
let fresh t prefix =
  t.uid <- t.uid + 1;
  Printf.sprintf ".%s_%d" prefix t.uid

let label t name = Asm.label t.a name
let ins t i = Asm.ins t.a i

(* register shorthands *)
let rax = Regs.rax
let rbx = Regs.rbx
let rcx = Regs.rcx
let rdx = Regs.rdx
let rsi = Regs.rsi
let rdi = Regs.rdi
let rbp = Regs.rbp
let rsp = Regs.rsp
let r8 = Regs.r8
let r9 = Regs.r9
let r10 = Regs.r10
let r11 = Regs.r11
let r12 = Regs.r12
let r13 = Regs.r13
let r14 = Regs.r14
let r15 = Regs.r15

(** Load immediate (full 64-bit when needed). *)
let li t r v =
  if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0 then
    ins t (Insn.Mov (W64.B8, Insn.Reg r, Insn.Imm v))
  else ins t (Insn.Movabs (r, v))

let lii t r v = li t r (Int64.of_int v)

(** Load the address of a label. *)
let la t r name = Asm.lea_label t.a r name

let mov t rd rs = ins t (Insn.Mov (W64.B8, Insn.Reg rd, Insn.RM (Insn.Reg rs)))
let add t rd rs = ins t (Insn.Alu (Insn.Add, W64.B8, Insn.Reg rd, Insn.RM (Insn.Reg rs)))
let addi t rd v = ins t (Insn.Alu (Insn.Add, W64.B8, Insn.Reg rd, Insn.Imm (Int64.of_int v)))
let sub t rd rs = ins t (Insn.Alu (Insn.Sub, W64.B8, Insn.Reg rd, Insn.RM (Insn.Reg rs)))
let subi t rd v = ins t (Insn.Alu (Insn.Sub, W64.B8, Insn.Reg rd, Insn.Imm (Int64.of_int v)))
let andi t rd v = ins t (Insn.Alu (Insn.And, W64.B8, Insn.Reg rd, Insn.Imm (Int64.of_int v)))
let xor t rd rs = ins t (Insn.Alu (Insn.Xor, W64.B8, Insn.Reg rd, Insn.RM (Insn.Reg rs)))
let cmp t ra rb = ins t (Insn.Alu (Insn.Cmp, W64.B8, Insn.Reg ra, Insn.RM (Insn.Reg rb)))
let cmpi t ra v = ins t (Insn.Alu (Insn.Cmp, W64.B8, Insn.Reg ra, Insn.Imm (Int64.of_int v)))
let shl t rd n = ins t (Insn.Shift (Insn.Shl, W64.B8, Insn.Reg rd, Insn.ImmC n))
let shr t rd n = ins t (Insn.Shift (Insn.Shr, W64.B8, Insn.Reg rd, Insn.ImmC n))
let imul t rd rs = ins t (Insn.Imul2 (W64.B8, rd, Insn.Reg rs))

(** 64-bit load/store via [base + disp]. *)
let ld t rd ~base ?(disp = 0) () =
  ins t (Insn.Mov (W64.B8, Insn.Reg rd, Insn.RM (Insn.Mem (Insn.mem_bd base (Int64.of_int disp)))))

let st t ~base ?(disp = 0) rs () =
  ins t (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd base (Int64.of_int disp)), Insn.RM (Insn.Reg rs)))

(** Byte load (zero-extended) / store. *)
let ldb t rd ~base ?(disp = 0) ?index ?(scale = 1) () =
  ins t
    (Insn.Movzx
       (W64.B8, W64.B1, rd, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ())))

let stb t ~base ?(disp = 0) ?index ?(scale = 1) rs () =
  ins t
    (Insn.Mov
       (W64.B1, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ()),
        Insn.RM (Insn.Reg rs)))

let push t r = ins t (Insn.Push (Insn.RM (Insn.Reg r)))
let pop t r = ins t (Insn.Pop (Insn.Reg r))
let call t name = Asm.call t.a name
let ret t = ins t Insn.Ret
let jmp t name = Asm.jmp t.a name
let jcc t c name = Asm.jcc t.a c name
let je t name = jcc t Flags.E name
let jne t name = jcc t Flags.NE name

(** Inline syscall: number in rax, args already in rdi/rsi/rdx. *)
let syscall t nr =
  lii t rax nr;
  ins t Insn.Syscall

(* common syscall wrappers (clobber arg registers per the kernel ABI) *)
let sys_exit t code =
  lii t rdi code;
  syscall t Abi.sys_exit

let sys_marker t n =
  lii t rdi n;
  syscall t Abi.sys_ptl_marker

(** Emit a NUL-terminated string constant; returns its label. *)
let cstring t s =
  let l = fresh t "str" in
  let skip = fresh t "skip" in
  jmp t skip;
  label t l;
  Asm.asciz t.a s;
  label t skip;
  l

(** Data buffer of [n] zero bytes; returns its label. *)
let buffer t n =
  let l = fresh t "buf" in
  let skip = fresh t "skip" in
  jmp t skip;
  Asm.align t.a 8;
  label t l;
  Asm.space t.a n;
  label t skip;
  l

(** A counted loop: rcx from [n] down to 1. The body must preserve rcx. *)
let loop_n t n body =
  let top = fresh t "loop" in
  lii t rcx n;
  label t top;
  body ();
  ins t (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg rcx));
  jne t top

(* ---- reusable guest library routines ----

   Each [emit_*_fn] plants a callable function under a fixed label; the
   program calls it with the standard convention. Programs emit only the
   routines they use. *)

(** memcpy(rdi=dst, rsi=src, rdx=len); clobbers rcx. *)
let emit_memcpy_fn t =
  label t "memcpy";
  mov t rcx rdx;
  ins t (Insn.Movs (W64.B1, true));
  ret t

(** memset(rdi=dst, rsi=byte, rdx=len); clobbers rax, rcx. *)
let emit_memset_fn t =
  label t "memset";
  mov t rcx rdx;
  mov t rax rsi;
  ins t (Insn.Stos (W64.B1, true));
  ret t

(** write_full(rdi=fd, rsi=buf, rdx=len): loops until all written.
    Returns total in rax. Clobbers r8/r9/r10. *)
let emit_write_full_fn t =
  label t "write_full";
  mov t r8 rdi;
  mov t r9 rsi;
  mov t r10 rdx;
  let top = fresh t "wf" in
  let out = fresh t "wf_done" in
  label t top;
  cmpi t r10 0;
  jcc t Flags.LE out;
  mov t rdi r8;
  mov t rsi r9;
  mov t rdx r10;
  syscall t Abi.sys_write;
  cmpi t rax 0;
  jcc t Flags.LE out;
  add t r9 rax;
  sub t r10 rax;
  jmp t top;
  label t out;
  ret t

(** read_full(rdi=fd, rsi=buf, rdx=len): loops until len read or EOF.
    Returns bytes read in rax. Clobbers r8/r9/r10/r11... uses r12 (saved). *)
let emit_read_full_fn t =
  label t "read_full";
  push t r12;
  mov t r8 rdi;
  mov t r9 rsi;
  mov t r10 rdx;
  lii t r12 0;
  let top = fresh t "rf" in
  let out = fresh t "rf_done" in
  label t top;
  cmpi t r10 0;
  jcc t Flags.LE out;
  mov t rdi r8;
  mov t rsi r9;
  mov t rdx r10;
  syscall t Abi.sys_read;
  cmpi t rax 0;
  jcc t Flags.LE out;
  add t r9 rax;
  sub t r10 rax;
  add t r12 rax;
  jmp t top;
  label t out;
  mov t rax r12;
  pop t r12;
  ret t

(** checksum(rdi=buf, rsi=len) -> rax: the rsync rolling-checksum shape
    (two accumulators over every byte). Clobbers rcx, rdx, r8, r9. *)
let emit_checksum_fn t =
  label t "checksum";
  xor t rax rax (* a *);
  xor t rdx rdx (* b *);
  mov t rcx rsi;
  let top = fresh t "ck" in
  let out = fresh t "ck_done" in
  label t top;
  cmpi t rcx 0;
  je t out;
  ldb t r8 ~base:rdi ();
  add t rax r8;
  andi t rax 0xFFFF;
  add t rdx rax;
  andi t rdx 0xFFFF;
  addi t rdi 1;
  subi t rcx 1;
  jne t top;
  label t out;
  mov t r9 rdx;
  shl t r9 16;
  ins t (Insn.Alu (Insn.Or, W64.B8, Insn.Reg rax, Insn.RM (Insn.Reg r9)));
  ret t

(** 64-bit load/store with scaled index: rd <- [base + index*scale]. *)
let ldx t rd ~base ~index ?(scale = 8) ?(disp = 0) () =
  ins t
    (Insn.Mov
       (W64.B8, Insn.Reg rd,
        Insn.RM (Insn.Mem (Insn.mem ~base ~index ~scale ~disp:(Int64.of_int disp) ()))))

let stx t ~base ~index ?(scale = 8) ?(disp = 0) rs () =
  ins t
    (Insn.Mov
       (W64.B8, Insn.Mem (Insn.mem ~base ~index ~scale ~disp:(Int64.of_int disp) ()),
        Insn.RM (Insn.Reg rs)))

let orr t rd rs = ins t (Insn.Alu (Insn.Or, W64.B8, Insn.Reg rd, Insn.RM (Insn.Reg rs)))
let inc t rd = ins t (Insn.Unary (Insn.Inc, W64.B8, Insn.Reg rd))
let dec t rd = ins t (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg rd))
let imuli t rd v =
  lii t r11 v;
  imul t rd r11

(** 32-bit load (zero-extended) / store. *)
let ld32 t rd ~base ?(disp = 0) ?index ?(scale = 1) () =
  ins t
    (Insn.Movzx
       (W64.B8, W64.B4, rd, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ())))

let st32 t ~base ?(disp = 0) ?index ?(scale = 1) rs () =
  ins t
    (Insn.Mov
       (W64.B4, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ()),
        Insn.RM (Insn.Reg rs)))

(** Invoke the hypervisor with a ptlcall command list (the in-guest
    [ptlctl] tool from §4.1 is exactly this wrapper). *)
let ptlctl t cmd =
  let l = cstring t cmd in
  la t rdi l;
  lii t rsi (String.length cmd);
  ins t Insn.Ptlcall

(** 16-bit load (zero-extended) / store. *)
let ld16 t rd ~base ?(disp = 0) ?index ?(scale = 1) () =
  ins t
    (Insn.Movzx
       (W64.B8, W64.B2, rd, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ())))

let st16 t ~base ?(disp = 0) ?index ?(scale = 1) rs () =
  ins t
    (Insn.Mov
       (W64.B2, Insn.Mem (Insn.mem ?index ~scale ~base ~disp:(Int64.of_int disp) ()),
        Insn.RM (Insn.Reg rs)))

(** strlen(rdi=ptr) -> rax. Clobbers rcx. *)
let emit_strlen_fn t =
  label t "strlen";
  xor t rax rax;
  let top = fresh t "sl" in
  let out = fresh t "sl_done" in
  label t top;
  ldb t rcx ~base:rdi ~index:rax ();
  cmpi t rcx 0;
  je t out;
  inc t rax;
  jmp t top;
  label t out;
  ret t
