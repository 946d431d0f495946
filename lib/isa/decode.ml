(** Binary decoder: byte stream to instruction AST.

    The decoder pulls bytes through a fetch callback so the caller controls
    where code comes from (flat buffers in tests, guest virtual memory with
    page-crossing and fault semantics in the simulator). Decode failures
    raise [Invalid_opcode], which the cores turn into the #UD exception. *)

open Ptl_util
module Op = Opcodes

exception Invalid_opcode of int64

(** Decoder state over a byte fetch function. *)
type cursor = { fetch : int64 -> int; start : int64; mutable pos : int64 }

let cursor fetch rip = { fetch; start = rip; pos = rip }

let next cur =
  let b = cur.fetch cur.pos land 0xFF in
  cur.pos <- Int64.add cur.pos 1L;
  b

let consumed cur = Int64.to_int (Int64.sub cur.pos cur.start)

let bad cur = raise (Invalid_opcode cur.start)

let int_le cur n =
  let rec go i acc =
    if i >= n then acc
    else
      let b = Int64.of_int (next cur) in
      go (i + 1) (Int64.logor acc (Int64.shift_left b (8 * i)))
  in
  go 0 0L

let sint_le cur n = W64.sign_extend (W64.size_of_bytes n) (int_le cur n)

let size_of_code cur = function
  | 0 -> W64.B1
  | 1 -> W64.B2
  | 2 -> W64.B4
  | 3 -> W64.B8
  | _ -> bad cur

let reg cur =
  let r = next cur in
  if not (Regs.valid_gpr r) then bad cur;
  r

let xmm cur =
  let x = next cur in
  if not (Regs.valid_xmm x) then bad cur;
  x

let mem cur : Insn.mem =
  let base = next cur in
  let index = next cur in
  let sib = next cur in
  let scale_log = sib land 0x03 in
  if sib land 0x7C <> 0 then bad cur;
  let disp = if sib land 0x80 <> 0 then sint_le cur 1 else sint_le cur 4 in
  let opt_reg b =
    if b = Op.no_reg then None
    else if Regs.valid_gpr b then Some b
    else bad cur
  in
  { base = opt_reg base; index = opt_reg index; scale = 1 lsl scale_log; disp }

let rm_of_kind cur kind : Insn.rm =
  match kind with
  | 0 -> Insn.Reg (reg cur)
  | 1 -> Insn.Mem (mem cur)
  | _ -> bad cur

(* The two-operand form byte shared by ALU / TEST / MOV. *)
let rm_src cur : W64.size * Insn.rm * Insn.src =
  let form = next cur in
  let size = size_of_code cur (form land 3) in
  let dst_kind = (form lsr 2) land 3 in
  let src_kind = (form lsr 4) land 3 in
  if form land lnot 0x3F <> 0 then bad cur;
  let dst = rm_of_kind cur dst_kind in
  let src =
    match src_kind with
    | 0 -> Insn.RM (Insn.Reg (reg cur))
    | 1 ->
      (match dst with Insn.Mem _ -> bad cur | Insn.Reg _ -> ());
      Insn.RM (Insn.Mem (mem cur))
    | 2 -> Insn.Imm (sint_le cur (Encode.imm_bytes size))
    | 3 -> Insn.Imm (sint_le cur 1)
    | _ -> bad cur
  in
  (size, dst, src)

let rel32_target cur =
  let rel = sint_le cur 4 in
  Int64.add cur.pos rel

let rel8_target cur =
  let rel = sint_le cur 1 in
  Int64.add cur.pos rel

let size_kind_form cur =
  let form = next cur in
  let size = size_of_code cur (form land 3) in
  let kind = (form lsr 2) land 1 in
  (form, size, kind)

let decode_primary cur opcode : Insn.t =
  if opcode >= Op.alu_base && opcode < Op.alu_base + 8 then begin
    let op =
      match opcode - Op.alu_base with
      | 0 -> Insn.Add | 1 -> Insn.Or | 2 -> Insn.Adc | 3 -> Insn.Sbb
      | 4 -> Insn.And | 5 -> Insn.Sub | 6 -> Insn.Xor | 7 -> Insn.Cmp
      | _ -> assert false
    in
    let size, dst, src = rm_src cur in
    Insn.Alu (op, size, dst, src)
  end
  else if opcode >= Op.unary_base && opcode < Op.unary_base + 4 then begin
    let op =
      match opcode - Op.unary_base with
      | 0 -> Insn.Not | 1 -> Insn.Neg | 2 -> Insn.Inc | 3 -> Insn.Dec
      | _ -> assert false
    in
    let form, size, kind = size_kind_form cur in
    if form land lnot 0x07 <> 0 then bad cur;
    Insn.Unary (op, size, rm_of_kind cur kind)
  end
  else if opcode >= Op.shift_base && opcode < Op.shift_base + 5 then begin
    let op =
      match opcode - Op.shift_base with
      | 0 -> Insn.Shl | 1 -> Insn.Shr | 2 -> Insn.Sar | 3 -> Insn.Rol | 4 -> Insn.Ror
      | _ -> assert false
    in
    let form = next cur in
    let size = size_of_code cur (form land 3) in
    let kind = (form lsr 2) land 1 in
    let ckind = (form lsr 3) land 1 in
    if form land lnot 0x0F <> 0 then bad cur;
    let dst = rm_of_kind cur kind in
    let count = if ckind = 0 then Insn.ImmC (next cur) else Insn.Cl in
    Insn.Shift (op, size, dst, count)
  end
  else if opcode >= Op.muldiv_base && opcode < Op.muldiv_base + 4 then begin
    let op =
      match opcode - Op.muldiv_base with
      | 0 -> Insn.Mul | 1 -> Insn.Imul1 | 2 -> Insn.Div | 3 -> Insn.Idiv
      | _ -> assert false
    in
    let form, size, kind = size_kind_form cur in
    if form land lnot 0x07 <> 0 then bad cur;
    Insn.Muldiv (op, size, rm_of_kind cur kind)
  end
  else if opcode >= Op.bittest_base && opcode < Op.bittest_base + 4 then begin
    let op =
      match opcode - Op.bittest_base with
      | 0 -> Insn.Bt | 1 -> Insn.Bts | 2 -> Insn.Btr | 3 -> Insn.Btc
      | _ -> assert false
    in
    let form = next cur in
    let size = size_of_code cur (form land 3) in
    let kind = (form lsr 2) land 1 in
    let skind = (form lsr 3) land 1 in
    if form land lnot 0x0F <> 0 then bad cur;
    let dst = rm_of_kind cur kind in
    let src = if skind = 0 then Insn.Breg (reg cur) else Insn.Bimm (next cur) in
    Insn.Bittest (op, size, dst, src)
  end
  else if opcode = Op.nop then Insn.Nop
  else if opcode = Op.test then
    let size, dst, src = rm_src cur in
    Insn.Test (size, dst, src)
  else if opcode = Op.mov then
    let size, dst, src = rm_src cur in
    Insn.Mov (size, dst, src)
  else if opcode = Op.movabs then begin
    let r = reg cur in
    Insn.Movabs (r, int_le cur 8)
  end
  else if opcode = Op.lea then begin
    let r = reg cur in
    Insn.Lea (r, mem cur)
  end
  else if opcode = Op.movzx || opcode = Op.movsx then begin
    let form = next cur in
    let dsize = size_of_code cur (form land 3) in
    let ssize = size_of_code cur ((form lsr 2) land 3) in
    let kind = (form lsr 4) land 1 in
    if form land lnot 0x1F <> 0 then bad cur;
    if W64.bytes_of_size ssize >= W64.bytes_of_size dsize then bad cur;
    let r = reg cur in
    let src = rm_of_kind cur kind in
    if opcode = Op.movzx then Insn.Movzx (dsize, ssize, r, src)
    else Insn.Movsx (dsize, ssize, r, src)
  end
  else if opcode = Op.imul2 then begin
    let form, size, kind = size_kind_form cur in
    if form land lnot 0x07 <> 0 then bad cur;
    let r = reg cur in
    Insn.Imul2 (size, r, rm_of_kind cur kind)
  end
  else if opcode = Op.push then begin
    match next cur with
    | 0 -> Insn.Push (Insn.RM (Insn.Reg (reg cur)))
    | 1 -> Insn.Push (Insn.Imm (sint_le cur 4))
    | 2 -> Insn.Push (Insn.RM (Insn.Mem (mem cur)))
    | _ -> bad cur
  end
  else if opcode = Op.pop then begin
    let kind = next cur in
    if kind > 1 then bad cur;
    Insn.Pop (rm_of_kind cur kind)
  end
  else if opcode = Op.call then Insn.Call (rel32_target cur)
  else if opcode = Op.call_ind then begin
    let kind = next cur in
    if kind > 1 then bad cur;
    Insn.CallInd (rm_of_kind cur kind)
  end
  else if opcode = Op.ret then Insn.Ret
  else if opcode = Op.jmp then Insn.Jmp (rel32_target cur)
  else if opcode = Op.jmp_ind then begin
    let kind = next cur in
    if kind > 1 then bad cur;
    Insn.JmpInd (rm_of_kind cur kind)
  end
  else if opcode = Op.jcc then begin
    let cb = next cur in
    let cond = Flags.cond_of_code (cb land 0x0F) in
    if cb land lnot 0x8F <> 0 then bad cur;
    if cb land 0x80 <> 0 then Insn.Jcc (cond, rel8_target cur)
    else Insn.Jcc (cond, rel32_target cur)
  end
  else if opcode = Op.setcc then begin
    let cond = Flags.cond_of_code (next cur land 0x0F) in
    let kind = next cur in
    if kind > 1 then bad cur;
    Insn.Setcc (cond, rm_of_kind cur kind)
  end
  else if opcode = Op.cmovcc then begin
    let cond = Flags.cond_of_code (next cur land 0x0F) in
    let form, size, kind = size_kind_form cur in
    if form land lnot 0x07 <> 0 then bad cur;
    let r = reg cur in
    Insn.Cmovcc (cond, size, r, rm_of_kind cur kind)
  end
  else if opcode = Op.xchg || opcode = Op.xadd || opcode = Op.cmpxchg then begin
    let form, size, kind = size_kind_form cur in
    if form land lnot 0x07 <> 0 then bad cur;
    let dst = rm_of_kind cur kind in
    let r = reg cur in
    match opcode with
    | o when o = Op.xchg -> Insn.Xchg (size, dst, r)
    | o when o = Op.xadd -> Insn.Xadd (size, dst, r)
    | _ -> Insn.Cmpxchg (size, dst, r)
  end
  else if opcode = Op.movs || opcode = Op.stos || opcode = Op.lods then begin
    let size = size_of_code cur (next cur) in
    match opcode with
    | o when o = Op.movs -> Insn.Movs (size, false)
    | o when o = Op.stos -> Insn.Stos (size, false)
    | _ -> Insn.Lods (size, false)
  end
  else if opcode = Op.hlt then Insn.Hlt
  else if opcode = Op.syscall then Insn.Syscall
  else if opcode = Op.sysret then Insn.Sysret
  else if opcode = Op.int_ then Insn.Int (next cur)
  else if opcode = Op.iret then Insn.Iret
  else if opcode = Op.pushf then Insn.Pushf
  else if opcode = Op.popf then Insn.Popf
  else if opcode = Op.cli then Insn.Cli
  else if opcode = Op.sti then Insn.Sti
  else if opcode = Op.pause then Insn.Pause
  else bad cur

let decode_secondary cur opcode : Insn.t =
  if opcode >= Op.x_fp_base && opcode < Op.x_fp_base + 4 then begin
    let op =
      match opcode - Op.x_fp_base with
      | 0 -> Insn.Fadd | 1 -> Insn.Fsub | 2 -> Insn.Fmul | 3 -> Insn.Fdiv
      | _ -> assert false
    in
    Insn.Fp (op, mem cur)
  end
  else if opcode >= Op.x_sse_base && opcode < Op.x_sse_base + 4 then begin
    let op =
      match opcode - Op.x_sse_base with
      | 0 -> Insn.Addsd | 1 -> Insn.Subsd | 2 -> Insn.Mulsd | 3 -> Insn.Divsd
      | _ -> assert false
    in
    let xd = xmm cur in
    Insn.Sse (op, xd, xmm cur)
  end
  else if opcode = Op.x_ptlcall then Insn.Ptlcall
  else if opcode = Op.x_kcall then Insn.Kcall
  else if opcode = Op.x_rdtsc then Insn.Rdtsc
  else if opcode = Op.x_rdpmc then Insn.Rdpmc
  else if opcode = Op.x_cpuid then Insn.Cpuid
  else if opcode = Op.x_mov_to_cr then begin
    let cr = next cur in
    Insn.MovToCr (cr, reg cur)
  end
  else if opcode = Op.x_mov_from_cr then begin
    let cr = next cur in
    Insn.MovFromCr (cr, reg cur)
  end
  else if opcode = Op.x_invlpg then Insn.Invlpg (mem cur)
  else if opcode = Op.x_fld then Insn.Fld (mem cur)
  else if opcode = Op.x_fst then Insn.Fst (mem cur)
  else if opcode = Op.x_sse_load then begin
    let x = xmm cur in
    Insn.SseLoad (x, mem cur)
  end
  else if opcode = Op.x_sse_store then begin
    let x = xmm cur in
    Insn.SseStore (mem cur, x)
  end
  else if opcode = Op.x_sse_mov then begin
    let xd = xmm cur in
    Insn.SseMov (xd, xmm cur)
  end
  else if opcode = Op.x_cvtsi2sd then begin
    let x = xmm cur in
    Insn.Cvtsi2sd (x, reg cur)
  end
  else if opcode = Op.x_cvtsd2si then begin
    let r = reg cur in
    Insn.Cvtsd2si (r, xmm cur)
  end
  else if opcode = Op.x_comisd then begin
    let xa = xmm cur in
    Insn.Comisd (xa, xmm cur)
  end
  else bad cur

(** Decode one instruction at virtual address [rip], fetching bytes through
    [fetch]. Returns the instruction and its encoded length. Raises
    [Invalid_opcode] on undefined encodings; any exception raised by
    [fetch] (such as a page-fault marker) propagates. *)
let decode ~fetch ~rip : Insn.t * int =
  let cur = cursor fetch rip in
  let rec go ~locked ~rep =
    let opcode = next cur in
    if opcode = Op.pfx_lock then begin
      if locked then bad cur;
      go ~locked:true ~rep
    end
    else if opcode = Op.pfx_rep then begin
      if rep then bad cur;
      go ~locked ~rep:true
    end
    else begin
      let insn =
        if opcode = Op.escape then decode_secondary cur (next cur)
        else decode_primary cur opcode
      in
      let insn =
        if rep then
          match insn with
          | Insn.Movs (size, false) -> Insn.Movs (size, true)
          | Insn.Stos (size, false) -> Insn.Stos (size, true)
          | Insn.Lods (size, false) -> Insn.Lods (size, true)
          | _ -> bad cur
        else insn
      in
      if locked then begin
        if not (Insn.lockable insn) then bad cur;
        Insn.Locked insn
      end
      else insn
    end
  in
  let insn = go ~locked:false ~rep:false in
  (insn, consumed cur)
