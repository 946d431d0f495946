(** The x86lite-to-uop translator ("microcode").

    Each architectural instruction becomes 1..8 uops bracketed by SOM/EOM
    markers. Load-and-compute and load-compute-store forms expand into
    ld / op / st sequences; LOCK-prefixed read-modify-writes use the locked
    load (ld.l) and releasing store (st.rel) uops that drive the interlock
    controller (paper §4.4); REP string instructions expand into a uop-level
    loop whose back-edge re-enters the same instruction, making every
    iteration an interruptible macro-op boundary; privileged and complex
    operations become serializing microcode assists. *)

open Ptl_util
module Insn = Ptl_isa.Insn
module Flags = Ptl_isa.Flags

(** Raised for instruction forms the microcode declines to implement
    (cores convert this into the #UD exception). Currently only 8-bit
    divide, which no modern compiler emits. *)
exception Unimplemented of string

let cc = Flags.cc_mask
let cc_no_cf = Flags.cc_mask land lnot Flags.cf_mask

type builder = { mutable acc : Uop.t list; base : Uop.t }

let make_builder ~rip ~next_rip =
  { acc = []; base = { Uop.default with rip; next_rip } }

let push b u = b.acc <- u :: b.acc

(* The longest translation (REP MOVS: brz, ld, st, two adds, sub, bru
   is 7) rounded up to the documented bound. Cores size per-instruction
   buffers from it, so a longer sequence is a translator bug. *)
let max_uops = 8

let finish b =
  match List.rev b.acc with
  | [] -> invalid_arg "Microcode: empty translation"
  | l when List.length l > max_uops -> invalid_arg "Microcode: too many uops"
  | first :: rest ->
    let uops = Array.of_list ({ first with Uop.som = true } :: rest) in
    let last = Array.length uops - 1 in
    uops.(last) <- { uops.(last) with Uop.eom = true };
    uops

(* Memory operand fields onto a uop template. *)
let with_mem (u : Uop.t) (m : Insn.mem) =
  {
    u with
    Uop.ra = (match m.Insn.base with Some r -> r | None -> Uop.reg_none);
    rb = (match m.Insn.index with Some r -> r | None -> Uop.reg_none);
    scale = m.Insn.scale;
    imm = m.Insn.disp;
  }

let load_op ~locked = if locked then Uop.Ldl else Uop.Ld
let store_op ~locked = if locked then Uop.Strel else Uop.St

(* Emit a load of [m] into [dst] (zero-extended full-width temp). *)
let emit_load b ?(locked = false) ~size m ~dst =
  push b
    { (with_mem b.base m) with Uop.op = load_op ~locked; rd = dst; mem_size = size;
      unaligned = true }

(* Emit a store of register [data] to [m]. *)
let emit_store b ?(locked = false) ~size m ~data =
  push b
    { (with_mem b.base m) with Uop.op = store_op ~locked; rc = data; mem_size = size;
      unaligned = true }

(* Obtain the value of an rm operand: returns the register holding it,
   loading memory operands into [tmp]. *)
let rm_value b ~size ~tmp (rm : Insn.rm) =
  match rm with
  | Insn.Reg r -> r
  | Insn.Mem m ->
    emit_load b ~size m ~dst:tmp;
    tmp

(* ALU uop: rd = ra op (rb|imm). *)
let alu b op ~size ~rd ~ra ?(rb = Uop.reg_none) ?(imm = 0L) ?(setflags = 0)
    ?(readflags = false) () =
  push b { b.base with Uop.op; size; rd; ra; rb; imm; setflags; readflags }

let uop_of_alu = function
  | Insn.Add -> Uop.Add
  | Insn.Or -> Uop.Or
  | Insn.Adc -> Uop.Adc
  | Insn.Sbb -> Uop.Sbb
  | Insn.And -> Uop.And
  | Insn.Sub -> Uop.Sub
  | Insn.Xor -> Uop.Xor
  | Insn.Cmp -> Uop.Sub

let uop_of_shift = function
  | Insn.Shl -> Uop.Shl
  | Insn.Shr -> Uop.Shr
  | Insn.Sar -> Uop.Sar
  | Insn.Rol -> Uop.Rol
  | Insn.Ror -> Uop.Ror

let uop_of_bittest = function
  | Insn.Bt -> Uop.Bt
  | Insn.Bts -> Uop.Bts
  | Insn.Btr -> Uop.Btr
  | Insn.Btc -> Uop.Btc

let uop_of_fp = function
  | Insn.Fadd -> Uop.Fadd
  | Insn.Fsub -> Uop.Fsub
  | Insn.Fmul -> Uop.Fmul
  | Insn.Fdiv -> Uop.Fdiv

let uop_of_sse = function
  | Insn.Addsd -> Uop.Fadd
  | Insn.Subsd -> Uop.Fsub
  | Insn.Mulsd -> Uop.Fmul
  | Insn.Divsd -> Uop.Fdiv

let t0 = Uop.temp 0
let t1 = Uop.temp 1
let t2 = Uop.temp 2

let rsp = Ptl_isa.Regs.rsp
let rax = Ptl_isa.Regs.rax
let rcx = Ptl_isa.Regs.rcx
let rdx = Ptl_isa.Regs.rdx
let rsi = Ptl_isa.Regs.rsi
let rdi = Ptl_isa.Regs.rdi

(* Source operand of a two-operand instruction: register, immediate, or a
   freshly loaded temp. *)
let src_operand b ~size (src : Insn.src) =
  match src with
  | Insn.RM rm -> `Reg (rm_value b ~size ~tmp:t1 rm)
  | Insn.Imm v -> `Imm v

let alu_with_src b op ~size ~rd ~ra ~setflags ~readflags src =
  match src with
  | `Reg r -> alu b op ~size ~rd ~ra ~rb:r ~setflags ~readflags ()
  | `Imm v -> alu b op ~size ~rd ~ra ~imm:v ~setflags ~readflags ()

(* Write the 64-bit value in [src] into gpr [rd] with x86 sizing rules:
   full replace at B8, zero-extend at B4, merge at B1/B2. *)
let write_gpr b ~size ~rd ~src =
  push b { b.base with Uop.op = Uop.Mov; size; rd; ra = rd; rb = src }

(* Stack push of register [data]. *)
let emit_push_reg b data =
  alu b Uop.Sub ~size:W64.B8 ~rd:rsp ~ra:rsp ~imm:8L ();
  emit_store b ~size:W64.B8 (Insn.mem_bd rsp 0L) ~data

let assist b a =
  push b { b.base with Uop.op = Uop.Assist a }

(* Direction of flag state: rep ops ignore DF (always forward); see
   DESIGN.md deviations. *)
let string_step size = Int64.of_int (W64.bytes_of_size size)

(** Translate [insn] at [rip] with fall-through [next_rip] into its uop
    sequence. *)
let translate (insn : Insn.t) ~rip ~next_rip : Uop.t array =
  let b = make_builder ~rip ~next_rip in
  let rec go ?(locked = false) insn =
    match insn with
    | Insn.Locked inner -> go ~locked:true inner
    | Insn.Nop -> push b { b.base with Uop.op = Uop.Nop }
    | Insn.Alu (op, size, dst, src) ->
      let writeback = op <> Insn.Cmp in
      let uop = uop_of_alu op in
      let readflags = op = Insn.Adc || op = Insn.Sbb in
      (match dst with
      | Insn.Reg d ->
        let src = src_operand b ~size src in
        alu_with_src b uop ~size ~rd:(if writeback then d else Uop.reg_none)
          ~ra:d ~setflags:cc ~readflags src
      | Insn.Mem m ->
        let src = src_operand b ~size src in
        emit_load b ~locked ~size m ~dst:t0;
        alu_with_src b uop ~size ~rd:(if writeback then t0 else Uop.reg_none)
          ~ra:t0 ~setflags:cc ~readflags src;
        if writeback then emit_store b ~locked ~size m ~data:t0
        else if locked then
          (* cmp can carry LOCK only through the decoder rejecting it; keep
             the invariant that a locked load has a releasing store. *)
          emit_store b ~locked ~size m ~data:t0)
    | Insn.Test (size, dst, src) ->
      let a = rm_value b ~size ~tmp:t0 dst in
      let src = src_operand b ~size src in
      alu_with_src b Uop.And ~size ~rd:Uop.reg_none ~ra:a ~setflags:cc
        ~readflags:false src
    | Insn.Mov (size, dst, src) ->
      (match (dst, src) with
      | Insn.Reg d, Insn.Imm v ->
        push b { b.base with Uop.op = Uop.Mov; size; rd = d; ra = d; imm = v }
      | Insn.Reg d, Insn.RM (Insn.Reg s) ->
        push b { b.base with Uop.op = Uop.Mov; size; rd = d; ra = d; rb = s }
      | Insn.Reg d, Insn.RM (Insn.Mem m) ->
        (match size with
        | W64.B8 | W64.B4 ->
          (* loads zero-extend, matching x86 32-bit semantics *)
          emit_load b ~size m ~dst:d
        | W64.B1 | W64.B2 ->
          emit_load b ~size m ~dst:t0;
          write_gpr b ~size ~rd:d ~src:t0)
      | Insn.Mem m, Insn.Imm v ->
        push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; imm = v };
        emit_store b ~size m ~data:t0
      | Insn.Mem m, Insn.RM (Insn.Reg s) -> emit_store b ~size m ~data:s
      | Insn.Mem _, Insn.RM (Insn.Mem _) ->
        invalid_arg "Microcode: mem-to-mem mov")
    | Insn.Movabs (d, v) ->
      push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = d; imm = v }
    | Insn.Lea (d, m) ->
      push b { (with_mem b.base m) with Uop.op = Uop.Lea; rd = d }
    | Insn.Movzx (dsize, ssize, d, rm) ->
      (* loads already zero-extend; register sources need an explicit zext *)
      let v =
        match rm with
        | Insn.Mem m ->
          emit_load b ~size:ssize m ~dst:t0;
          t0
        | Insn.Reg s ->
          push b { b.base with Uop.op = Uop.Zext; rd = t0; ra = s; mem_size = ssize };
          t0
      in
      write_gpr b ~size:dsize ~rd:d ~src:v
    | Insn.Movsx (dsize, ssize, d, rm) ->
      let v =
        match rm with
        | Insn.Mem m ->
          emit_load b ~size:ssize m ~dst:t0;
          t0
        | Insn.Reg s -> s
      in
      push b { b.base with Uop.op = Uop.Sext; rd = t0; ra = v; mem_size = ssize };
      write_gpr b ~size:dsize ~rd:d ~src:t0
    | Insn.Unary (op, size, dst) ->
      let emit_unary ~rd ~ra =
        match op with
        | Insn.Not -> push b { b.base with Uop.op = Uop.Not; size; rd; ra }
        | Insn.Neg -> push b { b.base with Uop.op = Uop.Neg; size; rd; ra; setflags = cc }
        | Insn.Inc ->
          alu b Uop.Add ~size ~rd ~ra ~imm:1L ~setflags:cc_no_cf ~readflags:true ()
        | Insn.Dec ->
          alu b Uop.Sub ~size ~rd ~ra ~imm:1L ~setflags:cc_no_cf ~readflags:true ()
      in
      (match dst with
      | Insn.Reg d -> emit_unary ~rd:d ~ra:d
      | Insn.Mem m ->
        emit_load b ~locked ~size m ~dst:t0;
        emit_unary ~rd:t0 ~ra:t0;
        emit_store b ~locked ~size m ~data:t0)
    | Insn.Shift (op, size, dst, count) ->
      let uop = uop_of_shift op in
      let emit_shift ~rd ~ra =
        match count with
        | Insn.ImmC n ->
          alu b uop ~size ~rd ~ra ~imm:(Int64.of_int n) ~setflags:cc ~readflags:true ()
        | Insn.Cl -> alu b uop ~size ~rd ~ra ~rb:rcx ~setflags:cc ~readflags:true ()
      in
      (match dst with
      | Insn.Reg d -> emit_shift ~rd:d ~ra:d
      | Insn.Mem m ->
        emit_load b ~locked ~size m ~dst:t0;
        emit_shift ~rd:t0 ~ra:t0;
        emit_store b ~locked ~size m ~data:t0)
    | Insn.Imul2 (size, d, rm) ->
      let v = rm_value b ~size ~tmp:t0 rm in
      alu b Uop.Mull ~size ~rd:d ~ra:d ~rb:v ~setflags:cc ()
    | Insn.Muldiv (op, size, rm) ->
      if size = W64.B1 then
        raise (Unimplemented "8-bit multiply/divide");
      let v = rm_value b ~size ~tmp:t0 rm in
      (match op with
      | Insn.Mul | Insn.Imul1 ->
        let high = if op = Insn.Mul then Uop.Mulhu else Uop.Mulhs in
        (* high half first (reads old rax), then low into rax, then rdx *)
        push b { b.base with Uop.op = high; size; rd = t1; ra = rax; rb = v };
        alu b Uop.Mull ~size ~rd:rax ~ra:rax ~rb:v ~setflags:cc ();
        write_gpr b ~size ~rd:rdx ~src:t1
      | Insn.Div | Insn.Idiv ->
        let quot = if op = Insn.Div then Uop.Divqu else Uop.Divqs in
        let rem = if op = Insn.Div then Uop.Remqu else Uop.Remqs in
        push b { b.base with Uop.op = quot; size; rd = t1; ra = rdx; rb = rax; rc = v };
        push b { b.base with Uop.op = rem; size; rd = t2; ra = rdx; rb = rax; rc = v };
        write_gpr b ~size ~rd:rax ~src:t1;
        write_gpr b ~size ~rd:rdx ~src:t2)
    | Insn.Push src ->
      let data =
        match src with
        | Insn.RM (Insn.Reg r) -> r
        | Insn.RM (Insn.Mem m) ->
          emit_load b ~size:W64.B8 m ~dst:t0;
          t0
        | Insn.Imm v ->
          push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; imm = v };
          t0
      in
      emit_push_reg b data
    | Insn.Pop dst ->
      emit_load b ~size:W64.B8 (Insn.mem_bd rsp 0L) ~dst:t0;
      alu b Uop.Add ~size:W64.B8 ~rd:rsp ~ra:rsp ~imm:8L ();
      (match dst with
      | Insn.Reg d -> push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = d; rb = t0 }
      | Insn.Mem m -> emit_store b ~size:W64.B8 m ~data:t0)
    | Insn.Call target ->
      push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; imm = next_rip };
      emit_push_reg b t0;
      push b { b.base with Uop.op = Uop.Bru; br_target = target; hint_call = true }
    | Insn.CallInd rm ->
      let target = rm_value b ~size:W64.B8 ~tmp:t1 rm in
      push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; imm = next_rip };
      emit_push_reg b t0;
      push b { b.base with Uop.op = Uop.Jmpr; ra = target; hint_call = true }
    | Insn.Ret ->
      emit_load b ~size:W64.B8 (Insn.mem_bd rsp 0L) ~dst:t0;
      alu b Uop.Add ~size:W64.B8 ~rd:rsp ~ra:rsp ~imm:8L ();
      push b { b.base with Uop.op = Uop.Jmpr; ra = t0; hint_ret = true }
    | Insn.Jmp target -> push b { b.base with Uop.op = Uop.Bru; br_target = target }
    | Insn.JmpInd rm ->
      let target = rm_value b ~size:W64.B8 ~tmp:t0 rm in
      push b { b.base with Uop.op = Uop.Jmpr; ra = target }
    | Insn.Jcc (cond, target) ->
      push b { b.base with Uop.op = Uop.Brc cond; br_target = target; readflags = true }
    | Insn.Setcc (cond, dst) ->
      (match dst with
      | Insn.Reg d ->
        push b
          { b.base with Uop.op = Uop.Setc cond; size = W64.B1; rd = d; ra = d;
            readflags = true }
      | Insn.Mem m ->
        push b
          { b.base with Uop.op = Uop.Setc cond; size = W64.B1; rd = t0; ra = t0;
            readflags = true };
        emit_store b ~size:W64.B1 m ~data:t0)
    | Insn.Cmovcc (cond, size, d, rm) ->
      let v = rm_value b ~size ~tmp:t0 rm in
      push b
        { b.base with Uop.op = Uop.Sel cond; size; rd = d; ra = v; rb = d;
          readflags = true }
    | Insn.Xchg (size, dst, r) ->
      (match dst with
      | Insn.Mem m ->
        (* xchg with memory is implicitly locked on x86 *)
        emit_load b ~locked:true ~size m ~dst:t0;
        emit_store b ~locked:true ~size m ~data:r;
        write_gpr b ~size ~rd:r ~src:t0
      | Insn.Reg d ->
        push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; rb = d };
        write_gpr b ~size ~rd:d ~src:r;
        write_gpr b ~size ~rd:r ~src:t0)
    | Insn.Xadd (size, dst, r) ->
      (match dst with
      | Insn.Mem m ->
        emit_load b ~locked ~size m ~dst:t0;
        alu b Uop.Add ~size ~rd:t1 ~ra:t0 ~rb:r ~setflags:cc ();
        emit_store b ~locked ~size m ~data:t1;
        write_gpr b ~size ~rd:r ~src:t0
      | Insn.Reg d ->
        push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; rb = d };
        alu b Uop.Add ~size ~rd:d ~ra:d ~rb:r ~setflags:cc ();
        write_gpr b ~size ~rd:r ~src:t0)
    | Insn.Cmpxchg (size, dst, r) ->
      let old =
        match dst with
        | Insn.Mem m ->
          emit_load b ~locked ~size m ~dst:t0;
          t0
        | Insn.Reg d ->
          push b { b.base with Uop.op = Uop.Mov; size = W64.B8; rd = t0; rb = d };
          t0
      in
      (* flags from rax - old *)
      alu b Uop.Sub ~size ~rd:Uop.reg_none ~ra:rax ~rb:old ~setflags:cc ();
      (* value to store back: r if equal else the old value *)
      push b
        { b.base with Uop.op = Uop.Sel Flags.E; size = W64.B8; rd = t1; ra = r;
          rb = old; readflags = true };
      (match dst with
      | Insn.Mem m -> emit_store b ~locked ~size m ~data:t1
      | Insn.Reg d -> write_gpr b ~size ~rd:d ~src:t1);
      (* rax <- old value when not equal *)
      push b
        { b.base with Uop.op = Uop.Sel Flags.NE; size = W64.B8; rd = t2; ra = old;
          rb = rax; readflags = true };
      write_gpr b ~size ~rd:rax ~src:t2
    | Insn.Bittest (op, size, dst, src) ->
      let uop = uop_of_bittest op in
      let writes = op <> Insn.Bt in
      let idx_reg, idx_imm =
        match src with
        | Insn.Breg r -> (r, 0L)
        | Insn.Bimm n -> (Uop.reg_none, Int64.of_int n)
      in
      (match dst with
      | Insn.Reg d ->
        push b
          { b.base with Uop.op = uop; size; rd = (if writes then d else Uop.reg_none);
            ra = d; rb = idx_reg; imm = idx_imm; setflags = Flags.cf_mask;
            readflags = true }
      | Insn.Mem m ->
        emit_load b ~locked ~size m ~dst:t0;
        push b
          { b.base with Uop.op = uop; size; rd = (if writes then t0 else Uop.reg_none);
            ra = t0; rb = idx_reg; imm = idx_imm; setflags = Flags.cf_mask;
            readflags = true };
        if writes then emit_store b ~locked ~size m ~data:t0
        else if locked then emit_store b ~locked ~size m ~data:t0)
    | Insn.Movs (size, rep) ->
      let step = string_step size in
      if rep then
        push b
          { b.base with Uop.op = Uop.Brz; size = W64.B8; ra = rcx; br_target = next_rip };
      emit_load b ~size (Insn.mem_bd rsi 0L) ~dst:t0;
      emit_store b ~size (Insn.mem_bd rdi 0L) ~data:t0;
      alu b Uop.Add ~size:W64.B8 ~rd:rsi ~ra:rsi ~imm:step ();
      alu b Uop.Add ~size:W64.B8 ~rd:rdi ~ra:rdi ~imm:step ();
      if rep then begin
        alu b Uop.Sub ~size:W64.B8 ~rd:rcx ~ra:rcx ~imm:1L ();
        push b { b.base with Uop.op = Uop.Bru; br_target = rip }
      end
    | Insn.Stos (size, rep) ->
      let step = string_step size in
      if rep then
        push b
          { b.base with Uop.op = Uop.Brz; size = W64.B8; ra = rcx; br_target = next_rip };
      emit_store b ~size (Insn.mem_bd rdi 0L) ~data:rax;
      alu b Uop.Add ~size:W64.B8 ~rd:rdi ~ra:rdi ~imm:step ();
      if rep then begin
        alu b Uop.Sub ~size:W64.B8 ~rd:rcx ~ra:rcx ~imm:1L ();
        push b { b.base with Uop.op = Uop.Bru; br_target = rip }
      end
    | Insn.Lods (size, rep) ->
      let step = string_step size in
      if rep then
        push b
          { b.base with Uop.op = Uop.Brz; size = W64.B8; ra = rcx; br_target = next_rip };
      emit_load b ~size (Insn.mem_bd rsi 0L) ~dst:t0;
      write_gpr b ~size ~rd:rax ~src:t0;
      alu b Uop.Add ~size:W64.B8 ~rd:rsi ~ra:rsi ~imm:step ();
      if rep then begin
        alu b Uop.Sub ~size:W64.B8 ~rd:rcx ~ra:rcx ~imm:1L ();
        push b { b.base with Uop.op = Uop.Bru; br_target = rip }
      end
    | Insn.Hlt -> assist b Uop.A_hlt
    | Insn.Syscall -> assist b Uop.A_syscall
    | Insn.Sysret -> assist b Uop.A_sysret
    | Insn.Int n -> assist b (Uop.A_int n)
    | Insn.Iret -> assist b Uop.A_iret
    | Insn.Pushf -> assist b Uop.A_pushf
    | Insn.Popf -> assist b Uop.A_popf
    | Insn.Cli -> assist b Uop.A_cli
    | Insn.Sti -> assist b Uop.A_sti
    | Insn.Pause -> assist b Uop.A_pause
    | Insn.Ptlcall -> assist b Uop.A_ptlcall
    | Insn.Kcall -> assist b Uop.A_kcall
    | Insn.Rdtsc -> assist b Uop.A_rdtsc
    | Insn.Rdpmc -> assist b Uop.A_rdpmc
    | Insn.Cpuid -> assist b Uop.A_cpuid
    | Insn.MovToCr (cr, r) ->
      push b
        { b.base with Uop.op = Uop.Assist (Uop.A_mov_to_cr cr); imm = Int64.of_int r }
    | Insn.MovFromCr (cr, r) ->
      push b
        { b.base with Uop.op = Uop.Assist (Uop.A_mov_from_cr cr); imm = Int64.of_int r }
    | Insn.Invlpg m ->
      push b { (with_mem b.base m) with Uop.op = Uop.Lea; rd = t0 };
      assist b Uop.A_invlpg
    | Insn.Fld m -> emit_load b ~size:W64.B8 m ~dst:Uop.reg_st0
    | Insn.Fst m -> emit_store b ~size:W64.B8 m ~data:Uop.reg_st0
    | Insn.Fp (op, m) ->
      emit_load b ~size:W64.B8 m ~dst:t0;
      push b
        { b.base with Uop.op = uop_of_fp op; rd = Uop.reg_st0; ra = Uop.reg_st0;
          rb = t0 }
    | Insn.SseLoad (x, m) -> emit_load b ~size:W64.B8 m ~dst:(Uop.xmm x)
    | Insn.SseStore (m, x) -> emit_store b ~size:W64.B8 m ~data:(Uop.xmm x)
    | Insn.SseMov (xd, xs) ->
      push b { b.base with Uop.op = Uop.Fmov; rd = Uop.xmm xd; rb = Uop.xmm xs }
    | Insn.Sse (op, xd, xs) ->
      push b
        { b.base with Uop.op = uop_of_sse op; rd = Uop.xmm xd; ra = Uop.xmm xd;
          rb = Uop.xmm xs }
    | Insn.Cvtsi2sd (x, r) ->
      push b { b.base with Uop.op = Uop.I2f; rd = Uop.xmm x; ra = r }
    | Insn.Cvtsd2si (r, x) ->
      push b { b.base with Uop.op = Uop.F2i; rd = r; ra = Uop.xmm x }
    | Insn.Comisd (xa, xb) ->
      push b
        { b.base with Uop.op = Uop.Fcmp; ra = Uop.xmm xa; rb = Uop.xmm xb;
          setflags = cc }
  in
  go insn;
  finish b
