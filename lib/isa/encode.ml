(** Binary encoder: instruction AST to variable-length byte sequences.

    Layout of one instruction:
    {v
      [0xF0 LOCK] [0xF3 REP] opcode [0x0F page2-opcode] fields...
    v}
    Fields follow the opcode in a fixed order per opcode; memory operands
    are [base index sib disp8/disp32] where the sib byte holds log2(scale)
    in its low bits and bit 7 selects an 8-bit displacement. Relative
    branches are encoded against the address of the *next* instruction, and
    [Jcc] has a short (rel8) form chosen when the displacement fits —
    exactly the relaxation problem a real variable-length ISA poses.

    Invariant checked by the property tests: [decode (encode i)] round
    trips for every valid instruction. *)

open Ptl_util
module Op = Opcodes

let size_code = function W64.B1 -> 0 | W64.B2 -> 1 | W64.B4 -> 2 | W64.B8 -> 3
let alu_code = function
  | Insn.Add -> 0 | Insn.Or -> 1 | Insn.Adc -> 2 | Insn.Sbb -> 3
  | Insn.And -> 4 | Insn.Sub -> 5 | Insn.Xor -> 6 | Insn.Cmp -> 7
let unary_code = function Insn.Not -> 0 | Insn.Neg -> 1 | Insn.Inc -> 2 | Insn.Dec -> 3
let shift_code = function
  | Insn.Shl -> 0 | Insn.Shr -> 1 | Insn.Sar -> 2 | Insn.Rol -> 3 | Insn.Ror -> 4
let muldiv_code = function
  | Insn.Mul -> 0 | Insn.Imul1 -> 1 | Insn.Div -> 2 | Insn.Idiv -> 3
let bittest_code = function
  | Insn.Bt -> 0 | Insn.Bts -> 1 | Insn.Btr -> 2 | Insn.Btc -> 3
let fp_code = function Insn.Fadd -> 0 | Insn.Fsub -> 1 | Insn.Fmul -> 2 | Insn.Fdiv -> 3
let sse_code = function
  | Insn.Addsd -> 0 | Insn.Subsd -> 1 | Insn.Mulsd -> 2 | Insn.Divsd -> 3

let fits_int8 v = Int64.compare v (-128L) >= 0 && Int64.compare v 127L <= 0
let fits_int32 v =
  Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0

let byte buf b = Buffer.add_char buf (Char.chr (b land 0xFF))

let int_le buf v n =
  for i = 0 to n - 1 do
    byte buf (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

(* Memory operand: base, index, sib (scale + disp8 flag), disp. *)
let emit_mem buf (m : Insn.mem) =
  byte buf (match m.base with Some r -> r | None -> Op.no_reg);
  byte buf (match m.index with Some r -> r | None -> Op.no_reg);
  let small = fits_int8 m.disp in
  let sib = Bitops.log2 m.scale lor (if small then 0x80 else 0) in
  byte buf sib;
  int_le buf m.disp (if small then 1 else 4)

(* Immediate width in bytes for the "imm32" form at a given operand size.
   Byte and word operations take immediates of their own width. *)
let imm_bytes size = min 4 (W64.bytes_of_size size)

(* Canonical form of an immediate at [size]: truncated to the operand width
   and sign-extended back to 64 bits, so that e.g. [mov al, 0xFF] and
   [mov al, -1] encode (and round-trip) identically. *)
let normalize_imm size v = W64.sign_extend size (W64.truncate size v)

(* Whether the canonicalised [v] is encodable as a sign-extended immediate
   at [size]; only 64-bit operations can fail (use [Movabs] instead). *)
let imm_encodable size v =
  match size with W64.B8 -> fits_int32 v | W64.B1 | W64.B2 | W64.B4 -> true

(* Two-operand form byte: size | dst kind | src kind. *)
let emit_rm_src buf size (dst : Insn.rm) (src : Insn.src) =
  let src =
    match src with
    | Insn.Imm v -> Insn.Imm (normalize_imm size v)
    | Insn.RM _ -> src
  in
  let dst_kind = match dst with Insn.Reg _ -> 0 | Insn.Mem _ -> 1 in
  let src_kind, imm8 =
    match src with
    | Insn.RM (Insn.Reg _) -> (0, false)
    | Insn.RM (Insn.Mem _) -> (1, false)
    | Insn.Imm v -> if fits_int8 v then (3, true) else (2, false)
  in
  (match (dst, src) with
  | Insn.Mem _, Insn.RM (Insn.Mem _) ->
    invalid_arg "Encode: memory-to-memory operand combination"
  | _ -> ());
  byte buf (size_code size lor (dst_kind lsl 2) lor (src_kind lsl 4));
  (match dst with Insn.Reg r -> byte buf r | Insn.Mem m -> emit_mem buf m);
  match src with
  | Insn.RM (Insn.Reg r) -> byte buf r
  | Insn.RM (Insn.Mem m) -> emit_mem buf m
  | Insn.Imm v ->
    if imm8 then int_le buf v 1
    else begin
      if not (imm_encodable size v) then
        invalid_arg (Printf.sprintf "Encode: immediate %Ld out of range" v);
      int_le buf v (imm_bytes size)
    end

let emit_rm buf (rm : Insn.rm) =
  match rm with Insn.Reg r -> byte buf r | Insn.Mem m -> emit_mem buf m

let rm_kind = function Insn.Reg _ -> 0 | Insn.Mem _ -> 1

(* Relative branch displacement: patched after the instruction length is
   known, since the displacement is relative to the next instruction. *)
let emit_rel32 buf ~rip ~target ~len_before_rel =
  let next = Int64.add rip (Int64.of_int (len_before_rel + 4)) in
  let rel = Int64.sub target next in
  if not (fits_int32 rel) then invalid_arg "Encode: branch displacement too far";
  int_le buf rel 4

(** Encode [insn] as placed at virtual address [rip] (needed for relative
    branches; defaults to 0). [short_branches] (default true) lets the
    encoder pick the rel8 form of [Jcc] when the displacement fits; the
    assembler disables it per-instruction to break relaxation oscillation.
    Returns the raw bytes. *)
let rec encode ?(rip = 0L) ?(short_branches = true) (insn : Insn.t) : string =
  let buf = Buffer.create 8 in
  (match insn with
  | Insn.Locked body ->
    if not (Insn.lockable body) then invalid_arg "Encode: LOCK on non-lockable";
    byte buf Op.pfx_lock;
    Buffer.add_string buf (encode ~rip:(Int64.add rip 1L) ~short_branches body)
  | Insn.Nop -> byte buf Op.nop
  | Insn.Alu (op, size, dst, src) ->
    byte buf (Op.alu_base + alu_code op);
    emit_rm_src buf size dst src
  | Insn.Test (size, dst, src) ->
    byte buf Op.test;
    emit_rm_src buf size dst src
  | Insn.Mov (size, dst, src) ->
    byte buf Op.mov;
    emit_rm_src buf size dst src
  | Insn.Movabs (r, v) ->
    byte buf Op.movabs;
    byte buf r;
    int_le buf v 8
  | Insn.Lea (r, m) ->
    byte buf Op.lea;
    byte buf r;
    emit_mem buf m
  | Insn.Movzx (dsize, ssize, r, src) | Insn.Movsx (dsize, ssize, r, src) ->
    byte buf (match insn with Insn.Movzx _ -> Op.movzx | _ -> Op.movsx);
    byte buf (size_code dsize lor (size_code ssize lsl 2) lor (rm_kind src lsl 4));
    byte buf r;
    emit_rm buf src
  | Insn.Unary (op, size, dst) ->
    byte buf (Op.unary_base + unary_code op);
    byte buf (size_code size lor (rm_kind dst lsl 2));
    emit_rm buf dst
  | Insn.Shift (op, size, dst, count) ->
    byte buf (Op.shift_base + shift_code op);
    let ckind = match count with Insn.ImmC _ -> 0 | Insn.Cl -> 1 in
    byte buf (size_code size lor (rm_kind dst lsl 2) lor (ckind lsl 3));
    emit_rm buf dst;
    (match count with
    | Insn.ImmC n ->
      if n < 0 || n > 255 then invalid_arg "Encode: shift count";
      byte buf n
    | Insn.Cl -> ())
  | Insn.Imul2 (size, r, src) ->
    byte buf Op.imul2;
    byte buf (size_code size lor (rm_kind src lsl 2));
    byte buf r;
    emit_rm buf src
  | Insn.Muldiv (op, size, operand) ->
    byte buf (Op.muldiv_base + muldiv_code op);
    byte buf (size_code size lor (rm_kind operand lsl 2));
    emit_rm buf operand
  | Insn.Push src ->
    byte buf Op.push;
    (match src with
    | Insn.RM (Insn.Reg r) ->
      byte buf 0;
      byte buf r
    | Insn.Imm v ->
      if not (fits_int32 v) then invalid_arg "Encode: push imm out of range";
      byte buf 1;
      int_le buf v 4
    | Insn.RM (Insn.Mem m) ->
      byte buf 2;
      emit_mem buf m)
  | Insn.Pop dst ->
    byte buf Op.pop;
    byte buf (rm_kind dst);
    emit_rm buf dst
  | Insn.Call target ->
    byte buf Op.call;
    emit_rel32 buf ~rip ~target ~len_before_rel:1
  | Insn.CallInd rm ->
    byte buf Op.call_ind;
    byte buf (rm_kind rm);
    emit_rm buf rm
  | Insn.Ret -> byte buf Op.ret
  | Insn.Jmp target ->
    byte buf Op.jmp;
    emit_rel32 buf ~rip ~target ~len_before_rel:1
  | Insn.JmpInd rm ->
    byte buf Op.jmp_ind;
    byte buf (rm_kind rm);
    emit_rm buf rm
  | Insn.Jcc (cond, target) ->
    byte buf Op.jcc;
    (* Short form: opcode + condbyte(bit7) + rel8 = 3 bytes. *)
    let rel_short = Int64.sub target (Int64.add rip 3L) in
    if short_branches && fits_int8 rel_short then begin
      byte buf (Flags.cond_code cond lor 0x80);
      int_le buf rel_short 1
    end
    else begin
      byte buf (Flags.cond_code cond);
      emit_rel32 buf ~rip ~target ~len_before_rel:2
    end
  | Insn.Setcc (cond, dst) ->
    byte buf Op.setcc;
    byte buf (Flags.cond_code cond);
    byte buf (rm_kind dst);
    emit_rm buf dst
  | Insn.Cmovcc (cond, size, r, src) ->
    byte buf Op.cmovcc;
    byte buf (Flags.cond_code cond);
    byte buf (size_code size lor (rm_kind src lsl 2));
    byte buf r;
    emit_rm buf src
  | Insn.Xchg (size, dst, r) | Insn.Xadd (size, dst, r) | Insn.Cmpxchg (size, dst, r) ->
    byte buf
      (match insn with
      | Insn.Xchg _ -> Op.xchg
      | Insn.Xadd _ -> Op.xadd
      | _ -> Op.cmpxchg);
    byte buf (size_code size lor (rm_kind dst lsl 2));
    emit_rm buf dst;
    byte buf r
  | Insn.Bittest (op, size, dst, src) ->
    byte buf (Op.bittest_base + bittest_code op);
    let skind = match src with Insn.Breg _ -> 0 | Insn.Bimm _ -> 1 in
    byte buf (size_code size lor (rm_kind dst lsl 2) lor (skind lsl 3));
    emit_rm buf dst;
    (match src with
    | Insn.Breg r -> byte buf r
    | Insn.Bimm n ->
      if n < 0 || n > 255 then invalid_arg "Encode: bit index";
      byte buf n)
  | Insn.Movs (size, rep) | Insn.Stos (size, rep) | Insn.Lods (size, rep) ->
    if rep then byte buf Op.pfx_rep;
    byte buf
      (match insn with
      | Insn.Movs _ -> Op.movs
      | Insn.Stos _ -> Op.stos
      | _ -> Op.lods);
    byte buf (size_code size)
  | Insn.Hlt -> byte buf Op.hlt
  | Insn.Syscall -> byte buf Op.syscall
  | Insn.Sysret -> byte buf Op.sysret
  | Insn.Int n ->
    byte buf Op.int_;
    byte buf n
  | Insn.Iret -> byte buf Op.iret
  | Insn.Pushf -> byte buf Op.pushf
  | Insn.Popf -> byte buf Op.popf
  | Insn.Cli -> byte buf Op.cli
  | Insn.Sti -> byte buf Op.sti
  | Insn.Pause -> byte buf Op.pause
  | Insn.Ptlcall ->
    byte buf Op.escape;
    byte buf Op.x_ptlcall
  | Insn.Kcall ->
    byte buf Op.escape;
    byte buf Op.x_kcall
  | Insn.Rdtsc ->
    byte buf Op.escape;
    byte buf Op.x_rdtsc
  | Insn.Rdpmc ->
    byte buf Op.escape;
    byte buf Op.x_rdpmc
  | Insn.Cpuid ->
    byte buf Op.escape;
    byte buf Op.x_cpuid
  | Insn.MovToCr (cr, r) ->
    byte buf Op.escape;
    byte buf Op.x_mov_to_cr;
    byte buf cr;
    byte buf r
  | Insn.MovFromCr (cr, r) ->
    byte buf Op.escape;
    byte buf Op.x_mov_from_cr;
    byte buf cr;
    byte buf r
  | Insn.Invlpg m ->
    byte buf Op.escape;
    byte buf Op.x_invlpg;
    emit_mem buf m
  | Insn.Fld m ->
    byte buf Op.escape;
    byte buf Op.x_fld;
    emit_mem buf m
  | Insn.Fst m ->
    byte buf Op.escape;
    byte buf Op.x_fst;
    emit_mem buf m
  | Insn.Fp (op, m) ->
    byte buf Op.escape;
    byte buf (Op.x_fp_base + fp_code op);
    emit_mem buf m
  | Insn.SseLoad (x, m) ->
    byte buf Op.escape;
    byte buf Op.x_sse_load;
    byte buf x;
    emit_mem buf m
  | Insn.SseStore (m, x) ->
    byte buf Op.escape;
    byte buf Op.x_sse_store;
    byte buf x;
    emit_mem buf m
  | Insn.SseMov (xd, xs) ->
    byte buf Op.escape;
    byte buf Op.x_sse_mov;
    byte buf xd;
    byte buf xs
  | Insn.Sse (op, xd, xs) ->
    byte buf Op.escape;
    byte buf (Op.x_sse_base + sse_code op);
    byte buf xd;
    byte buf xs
  | Insn.Cvtsi2sd (x, r) ->
    byte buf Op.escape;
    byte buf Op.x_cvtsi2sd;
    byte buf x;
    byte buf r
  | Insn.Cvtsd2si (r, x) ->
    byte buf Op.escape;
    byte buf Op.x_cvtsd2si;
    byte buf r;
    byte buf x
  | Insn.Comisd (xa, xb) ->
    byte buf Op.escape;
    byte buf Op.x_comisd;
    byte buf xa;
    byte buf xb);
  Buffer.contents buf

(** Canonical form of an instruction: immediates reduced to the
    representation the encoder actually emits. [decode (encode i)] equals
    [normalize i] for every encodable instruction — the round-trip property
    checked by the test suite. *)
let rec normalize (insn : Insn.t) : Insn.t =
  match insn with
  | Insn.Alu (op, size, dst, Insn.Imm v) ->
    Insn.Alu (op, size, dst, Insn.Imm (normalize_imm size v))
  | Insn.Test (size, dst, Insn.Imm v) ->
    Insn.Test (size, dst, Insn.Imm (normalize_imm size v))
  | Insn.Mov (size, dst, Insn.Imm v) ->
    Insn.Mov (size, dst, Insn.Imm (normalize_imm size v))
  | Insn.Push (Insn.Imm v) -> Insn.Push (Insn.Imm (W64.sign_extend W64.B4 v))
  | Insn.Locked body -> Insn.Locked (normalize body)
  | other -> other
