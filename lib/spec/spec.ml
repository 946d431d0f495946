(** Declarative per-instruction specification of the x86lite-64 ISA.

    Following the x86isa/ACL2 line of work (PAPERS.md), this table is the
    repository's independent statement of what each instruction *means*:
    one row per mnemonic carrying the operand shapes the instruction
    admits, a per-flag Written/Preserved/Undefined lattice, the exception
    conditions it can raise, and an executable semantic function over a
    small architectural state. Everything else is derived from it:

    - {!Ptl_oracle.Oracle} interprets programs directly from the rows and
      is cross-checked against both the sequential reference core and the
      timed cores by the fuzz harness (three-way mode);
    - {!Ptl_oracle.Conformance} generates exhaustive corner-operand
      property tests per row, asserting the flag lattice;
    - [optlsim conformance --coverage] reports generator-reachable
      mnemonics with no row.

    INDEPENDENCE RULE: the semantic functions here must not call into
    [lib/uop] ([Exec]/[Microcode]), [lib/arch] ([Seqcore]) or the
    [W64] arithmetic helpers those use — the whole point is a second,
    independently written implementation, so a shared bug cannot hide.
    The only acceptable sharing is interface-level: the [W64.size] type,
    the RFLAGS bit positions in {!Ptl_isa.Flags}, the {!Ptl_isa.Insn}
    AST and the decoder (semantics are specified per decoded
    instruction; decode correctness is covered by the encoder/decoder
    round-trip tests). Where this model deliberately deviates from real
    x86 (DESIGN.md "Key modelling decisions"), the row's [note] records
    the deviation and the semantics mirror the model, e.g. rotates
    recompute ZF/SF/PF and REP ignores DF. *)

open Ptl_util
module Insn = Ptl_isa.Insn
module Regs = Ptl_isa.Regs
module Flags = Ptl_isa.Flags

(* ------------------------------------------------------------------ *)
(* Flag-effect lattice                                                 *)
(* ------------------------------------------------------------------ *)

(** Per-flag static effect. [Written]: the model computes the flag from
    the operation (property tests assert the write is non-vacuous over
    the corner sweep). [Preserved]: never modified (asserted on every
    case). [Undefined]: real x86 leaves it undefined or the update is
    count/operand-conditional; only oracle/core agreement is asserted. *)
type effect_ = Written | Preserved | Undefined

type lattice = {
  l_cf : effect_;
  l_pf : effect_;
  l_zf : effect_;
  l_sf : effect_;
  l_of : effect_;
}

let all_written = { l_cf = Written; l_pf = Written; l_zf = Written;
                    l_sf = Written; l_of = Written }
let all_preserved = { l_cf = Preserved; l_pf = Preserved; l_zf = Preserved;
                      l_sf = Preserved; l_of = Preserved }

(** Look up one flag's effect by its {!Flags.all_cc} name. *)
let effect_of l = function
  | "CF" -> l.l_cf
  | "PF" -> l.l_pf
  | "ZF" -> l.l_zf
  | "SF" -> l.l_sf
  | "OF" -> l.l_of
  | n -> invalid_arg ("Spec.effect_of: " ^ n)

(* ------------------------------------------------------------------ *)
(* Operand shapes and exception conditions                             *)
(* ------------------------------------------------------------------ *)

(** Operand shapes a row admits; drives the derived property-test
    generator (which sizes to sweep, whether memory forms exist). *)
type shape =
  | Plain  (* fixed operands or none: nop, cpuid, hlt, ret, ... *)
  | Alu_shape of W64.size list  (* rm dst x (reg|imm|mem) src *)
  | Rm_shape of W64.size list  (* single rm operand *)
  | Shift_shape of W64.size list
  | Widen_shape of (W64.size * W64.size) list  (* movzx/movsx (dst,src) *)
  | Reg_rm_shape of W64.size list  (* reg dst, rm src: imul2, cmovcc *)
  | Mul_shape of W64.size list  (* implicit rdx:rax widening forms *)
  | Push_shape
  | Pop_shape
  | Bit_shape of W64.size list
  | String_shape of W64.size list
  | Xchg_shape of W64.size list  (* xchg/xadd/cmpxchg rm x reg *)
  | Branch_shape
  | Setcc_shape
  | Fp_mem_shape  (* fld/fst/fadd..: one B8 memory operand *)
  | Fp_reg_shape  (* xmm,xmm binary / unary moves *)
  | Cvt_shape
  | Flagio_shape  (* pushf/popf *)

(** Exception conditions a row can trigger; the table-driven exception
    tests build one trigger scenario per condition per row. *)
type fault_cond =
  | F_de  (* #DE: divide by zero or quotient overflow *)
  | F_gp_user  (* #GP: privileged instruction in user mode *)
  | F_pf  (* #PF: memory operand on an unmapped page *)

(** A predicted architectural fault, with enough detail to compare
    against the delivery path (vector and CR2). *)
type fault =
  | Divide_fault
  | Privilege_fault
  | Access_fault of { addr : int64; write : bool }

let fault_vector = function
  | Divide_fault -> 0
  | Privilege_fault -> 13
  | Access_fault _ -> 14

(* ------------------------------------------------------------------ *)
(* Oracle architectural state                                          *)
(* ------------------------------------------------------------------ *)

type mode = User | Kernel

(** The oracle's whole world: registers, flags, rip and a byte-granular
    sparse memory over the code image (mapped bytes outside it read as
    zero, like the machine's freshly mapped pages). The mapped space is
    a list of inclusive intervals. Memory writes are journaled per step
    so a faulting instruction leaves no partial state behind, mirroring
    the sequential core's buffered macro-instruction commit. *)
type state = {
  regs : int64 array;  (* 16 GPRs, x86-64 encoding order *)
  xmms : int64 array;
  mutable st0 : int64;
  mutable rip : int64;
  mutable flags : int;
  mutable mode : mode;
  mutable halted : bool;
  mutable insns : int;  (* committed-unit count, aligned with seqcore *)
  mem : (int64, int) Hashtbl.t;  (* committed byte writes *)
  mutable journal : (int64 * int) list;  (* this step's pending writes *)
  image_base : int64;  (* address of [image]'s first byte *)
  image : string;  (* initial contents (the code image) *)
  mapped : (int64 * int64) list;  (* inclusive [lo, hi], sorted by lo *)
}

exception Spec_fault of fault
exception Unsupported_insn of string

let make_state ~rip ~flags ~mode ~image_base ~image ~mapped () =
  { regs = Array.make 16 0L; xmms = Array.make 16 0L; st0 = 0L; rip; flags;
    mode; halted = false; insns = 0; mem = Hashtbl.create 256; journal = [];
    image_base; image;
    mapped = List.sort (fun (a, _) (b, _) -> Int64.compare a b) mapped }

(* ------------------------------------------------------------------ *)
(* Independent word arithmetic                                         *)
(*                                                                     *)
(* Deliberately different formulations from lib/util/w64.ml: carries   *)
(* and overflows come from the classic bitwise carry-recurrence        *)
(* identities rather than unsigned compares, parity is a popcount      *)
(* loop, and the 128-bit multiplier works in 16-bit limbs.             *)
(* ------------------------------------------------------------------ *)

let bits = function W64.B1 -> 8 | W64.B2 -> 16 | W64.B4 -> 32 | W64.B8 -> 64

let size_mask sz =
  if bits sz = 64 then -1L else Int64.sub (Int64.shift_left 1L (bits sz)) 1L

let trunc sz v = Int64.logand v (size_mask sz)

let sext sz v =
  let s = 64 - bits sz in
  Int64.shift_right (Int64.shift_left v s) s

let msb sz v = Int64.logand (Int64.shift_right_logical v (bits sz - 1)) 1L = 1L
let lsb v = Int64.logand v 1L = 1L
let is_zero sz v = trunc sz v = 0L

(* Unsigned compare via sign-bias, not W64.ult's formulation. *)
let ucmp a b = compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int)

(* PF: even number of set bits in the low byte (popcount loop). *)
let parity v =
  let b = Int64.to_int (Int64.logand v 0xFFL) in
  let rec pop n acc = if n = 0 then acc else pop (n lsr 1) (acc + (n land 1)) in
  pop b 0 land 1 = 0

let fset mask b f = if b then f lor mask else f land lnot mask

let zsp sz r f =
  f
  |> fset Flags.zf_mask (is_zero sz r)
  |> fset Flags.sf_mask (msb sz r)
  |> fset Flags.pf_mask (parity r)

(* r = a + b + cin (mod 2^w). Carry-out of bit w-1 via the full-adder
   recurrence c' = (a&b) | ((a|b) & ~r); signed overflow via
   ~(a^b) & (a^r). Both read at the operand's top bit. *)
let add_cc sz a b cin f =
  let a = trunc sz a and b = trunc sz b in
  let r = trunc sz (Int64.add (Int64.add a b) (if cin then 1L else 0L)) in
  let carry =
    msb sz
      (Int64.logor (Int64.logand a b)
         (Int64.logand (Int64.logor a b) (Int64.lognot r)))
  in
  let ovf =
    msb sz (Int64.logand (Int64.lognot (Int64.logxor a b)) (Int64.logxor a r))
  in
  (r, f |> fset Flags.cf_mask carry |> fset Flags.of_mask ovf |> zsp sz r)

(* r = a - b - bin. Borrow via the full-subtractor recurrence
   br' = (~a&b) | ((~a|b) & r); overflow via (a^b) & (a^r). *)
let sub_cc sz a b bin f =
  let a = trunc sz a and b = trunc sz b in
  let r = trunc sz (Int64.sub (Int64.sub a b) (if bin then 1L else 0L)) in
  let na = Int64.lognot a in
  let borrow =
    msb sz (Int64.logor (Int64.logand na b) (Int64.logand (Int64.logor na b) r))
  in
  let ovf = msb sz (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) in
  (r, f |> fset Flags.cf_mask borrow |> fset Flags.of_mask ovf |> zsp sz r)

let logic_cc sz r f =
  let r = trunc sz r in
  (r, f |> fset Flags.cf_mask false |> fset Flags.of_mask false |> zsp sz r)

(* Shifts and rotates, mirroring the model's documented choices (count
   masked to the operand width as on x86; count 0 leaves every flag;
   OF only written at count 1; rotates recompute ZF/SF/PF — a model
   deviation from x86, which preserves them). *)
let shift_cc op sz v count f =
  let w = bits sz in
  let v = trunc sz v in
  match op with
  | Insn.Shl ->
    let c = count land (if w = 64 then 63 else 31) in
    if c = 0 then (v, f)
    else
      let r, cf =
        if c >= w then (0L, c = w && lsb v)
        else
          ( trunc sz (Int64.shift_left v c),
            Int64.logand (Int64.shift_right_logical v (w - c)) 1L = 1L )
      in
      let f = fset Flags.cf_mask cf f in
      let f = if c = 1 then fset Flags.of_mask (cf <> msb sz r) f else f in
      (r, zsp sz r f)
  | Insn.Shr ->
    let c = count land (if w = 64 then 63 else 31) in
    if c = 0 then (v, f)
    else
      let r, cf =
        if c >= w then (0L, false)
        else
          ( Int64.shift_right_logical v c,
            Int64.logand (Int64.shift_right_logical v (c - 1)) 1L = 1L )
      in
      let f = fset Flags.cf_mask cf f in
      let f = if c = 1 then fset Flags.of_mask (msb sz v) f else f in
      (r, zsp sz r f)
  | Insn.Sar ->
    let c = count land (if w = 64 then 63 else 31) in
    if c = 0 then (v, f)
    else
      let sv = sext sz v in
      let r = trunc sz (Int64.shift_right sv (min c (w - 1))) in
      let cf =
        if c >= w then msb sz v
        else Int64.logand (Int64.shift_right sv (c - 1)) 1L = 1L
      in
      let f = fset Flags.cf_mask cf f in
      let f = if c = 1 then fset Flags.of_mask false f else f in
      (r, zsp sz r f)
  | Insn.Rol ->
    let c = count mod w in
    if c = 0 then (v, f)
    else
      let r =
        trunc sz
          (Int64.logor (Int64.shift_left v c)
             (Int64.shift_right_logical v (w - c)))
      in
      let cf = lsb r in
      let f = fset Flags.cf_mask cf f in
      let f = if c = 1 then fset Flags.of_mask (cf <> msb sz r) f else f in
      (r, zsp sz r f)
  | Insn.Ror ->
    let c = count mod w in
    if c = 0 then (v, f)
    else
      let r =
        trunc sz
          (Int64.logor (Int64.shift_right_logical v c)
             (Int64.shift_left v (w - c)))
      in
      let cf = msb sz r in
      let f = fset Flags.cf_mask cf f in
      let f =
        if c = 1 then
          fset Flags.of_mask
            (msb sz r
            <> (Int64.logand (Int64.shift_right_logical r (w - 2)) 1L = 1L))
            f
        else f
      in
      (r, zsp sz r f)

(* 64x64 -> 128-bit unsigned multiply in 16-bit limbs: partial products
   accumulate in plain OCaml ints and carries propagate limb by limb. *)
let mul128u a b =
  let limb x i = Int64.to_int (Int64.logand (Int64.shift_right_logical x (16 * i)) 0xFFFFL) in
  let acc = Array.make 8 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      acc.(i + j) <- acc.(i + j) + (limb a i * limb b j)
    done
  done;
  let lo = ref 0L and hi = ref 0L and carry = ref 0 in
  for k = 0 to 7 do
    let v = acc.(k) + !carry in
    let low16 = Int64.of_int (v land 0xFFFF) in
    carry := v lsr 16;
    if k < 4 then lo := Int64.logor !lo (Int64.shift_left low16 (16 * k))
    else hi := Int64.logor !hi (Int64.shift_left low16 (16 * (k - 4)))
  done;
  (!lo, !hi)

(* Signed via magnitudes + 128-bit negation of the product. *)
let mul128s a b =
  let sa = a < 0L and sb = b < 0L in
  let au = if sa then Int64.neg a else a in
  let bu = if sb then Int64.neg b else b in
  let lo, hi = mul128u au bu in
  if sa <> sb then
    let lo' = Int64.neg lo in
    let hi' = if lo = 0L then Int64.neg hi else Int64.lognot hi in
    (lo', hi')
  else (lo, hi)

(* Low half of the widening multiply plus the model's CF=OF signal: the
   product does not fit the *signed* operand width (DESIGN.md notes this
   signed-fit rule is used even for unsigned mul). *)
let mull sz a b =
  let sa = sext sz a and sb = sext sz b in
  if sz = W64.B8 then
    let lo, hi = mul128s sa sb in
    (lo, hi <> Int64.shift_right lo 63)
  else
    let full = Int64.mul sa sb in
    let r = trunc sz full in
    (r, sext sz r <> full)

let mulh ~signed sz a b =
  if sz = W64.B8 then
    let _, hi = if signed then mul128s a b else mul128u a b in
    hi
  else
    let a = if signed then sext sz a else trunc sz a in
    let b = if signed then sext sz b else trunc sz b in
    let full = Int64.mul a b in
    if signed then trunc sz (Int64.shift_right full (bits sz))
    else Int64.shift_right_logical full (bits sz)

(* 128-by-64 unsigned divide with a two-word remainder register: all 128
   dividend bits shift in MSB-first and the remainder is reduced against
   the divisor after every shift. The caller has already excluded
   quotient overflow, so quotient bits above 63 never set. *)
let div128u ~hi ~lo ~d =
  if d = 0L then raise (Spec_fault Divide_fault);
  if ucmp hi d >= 0 then raise (Spec_fault Divide_fault);
  let rh = ref 0L and rl = ref 0L and q = ref 0L in
  for i = 127 downto 0 do
    let bit =
      if i >= 64 then Int64.logand (Int64.shift_right_logical hi (i - 64)) 1L
      else Int64.logand (Int64.shift_right_logical lo i) 1L
    in
    rh := Int64.logor (Int64.shift_left !rh 1) (Int64.shift_right_logical !rl 63);
    rl := Int64.logor (Int64.shift_left !rl 1) bit;
    if !rh <> 0L || ucmp !rl d >= 0 then begin
      if ucmp !rl d < 0 then rh := Int64.sub !rh 1L;
      rl := Int64.sub !rl d;
      if i < 64 then q := Int64.logor !q (Int64.shift_left 1L i)
    end
  done;
  (!q, !rl)

let div128s ~hi ~lo ~d =
  if d = 0L then raise (Spec_fault Divide_fault);
  let neg_dividend = hi < 0L in
  let hi, lo =
    if neg_dividend then
      let lo' = Int64.neg lo in
      let hi' = if lo = 0L then Int64.neg hi else Int64.lognot hi in
      (hi', lo')
    else (hi, lo)
  in
  let neg_divisor = d < 0L in
  let d_abs = if neg_divisor then Int64.neg d else d in
  let q, r = div128u ~hi ~lo ~d:d_abs in
  let q = if neg_dividend <> neg_divisor then Int64.neg q else q in
  let r = if neg_dividend then Int64.neg r else r in
  if neg_dividend <> neg_divisor then begin
    if q > 0L then raise (Spec_fault Divide_fault)
  end
  else if q < 0L then raise (Spec_fault Divide_fault);
  (q, r)

(* Condition codes, written out directly from the x86 truth table. *)
let cond_true (c : Flags.cond) f =
  let b m = f land m <> 0 in
  let cf = b Flags.cf_mask and zf = b Flags.zf_mask and sf = b Flags.sf_mask in
  let pf = b Flags.pf_mask and ovf = b Flags.of_mask in
  match c with
  | Flags.O -> ovf
  | Flags.NO -> not ovf
  | Flags.B -> cf
  | Flags.AE -> not cf
  | Flags.E -> zf
  | Flags.NE -> not zf
  | Flags.BE -> cf || zf
  | Flags.A -> (not cf) && not zf
  | Flags.S -> sf
  | Flags.NS -> not sf
  | Flags.P -> pf
  | Flags.NP -> not pf
  | Flags.L -> sf <> ovf
  | Flags.GE -> sf = ovf
  | Flags.LE -> zf || sf <> ovf
  | Flags.G -> (not zf) && sf = ovf

(* Scalar-double helpers (IEEE via the OCaml float runtime; exec.ml uses
   the same stdlib operators, which is unavoidable interface sharing —
   there is one IEEE 754). *)
let f64 bits = Int64.float_of_bits bits
let bits64 f = Int64.bits_of_float f

let fbinop (op : Insn.fpop) a b =
  match op with
  | Insn.Fadd -> bits64 (f64 a +. f64 b)
  | Insn.Fsub -> bits64 (f64 a -. f64 b)
  | Insn.Fmul -> bits64 (f64 a *. f64 b)
  | Insn.Fdiv -> bits64 (f64 a /. f64 b)

let sse_fpop = function
  | Insn.Addsd -> Insn.Fadd
  | Insn.Subsd -> Insn.Fsub
  | Insn.Mulsd -> Insn.Fmul
  | Insn.Divsd -> Insn.Fdiv

let f2i_indefinite = 9.22337203685477581e18

(* ------------------------------------------------------------------ *)
(* State accessors                                                     *)
(* ------------------------------------------------------------------ *)

let reg st r = st.regs.(r)

(* x86 partial-register writes: B1/B2 merge, B4 zero-extends, B8
   replaces. *)
let set_reg st sz r v =
  match sz with
  | W64.B8 -> st.regs.(r) <- v
  | W64.B4 -> st.regs.(r) <- trunc W64.B4 v
  | W64.B1 | W64.B2 ->
    let m = size_mask sz in
    st.regs.(r) <- Int64.logor (Int64.logand st.regs.(r) (Int64.lognot m))
        (Int64.logand v m)

(* The lowest address in [lo, hi] that no interval covers, if any. *)
let first_unmapped st lo hi =
  let rec go cur = function
    | [] -> Some cur
    | (a, b) :: rest ->
      if b < cur then go cur rest
      else if a > cur then Some cur
      else if b >= hi then None
      else go (Int64.succ b) rest
  in
  go lo st.mapped

let check_mapped st ~write addr =
  match first_unmapped st addr addr with
  | None -> ()
  | Some _ -> raise (Spec_fault (Access_fault { addr; write }))

let read_byte st addr =
  check_mapped st ~write:false addr;
  match List.assoc_opt addr st.journal with
  | Some b -> b
  | None -> (
    match Hashtbl.find_opt st.mem addr with
    | Some b -> b
    | None ->
      let off = Int64.sub addr st.image_base in
      if off >= 0L && off < Int64.of_int (String.length st.image) then
        Char.code st.image.[Int64.to_int off]
      else 0)

let read_range st base len =
  let buf = Bytes.make len '\000' in
  if len > 0 then begin
    (match first_unmapped st base (Int64.add base (Int64.of_int (len - 1))) with
    | Some addr -> raise (Spec_fault (Access_fault { addr; write = false }))
    | None -> ());
    (* the image overlap, as offsets into the image and the range *)
    let img_len = Int64.of_int (String.length st.image) in
    let lo = Int64.max base st.image_base in
    let hi = Int64.min (Int64.add base (Int64.of_int len)) (Int64.add st.image_base img_len) in
    if lo < hi then
      Bytes.blit_string st.image
        (Int64.to_int (Int64.sub lo st.image_base))
        buf
        (Int64.to_int (Int64.sub lo base))
        (Int64.to_int (Int64.sub hi lo))
  end;
  let put addr b =
    let off = Int64.sub addr base in
    if off >= 0L && off < Int64.of_int len then
      Bytes.unsafe_set buf (Int64.to_int off) (Char.unsafe_chr b)
  in
  Hashtbl.iter put st.mem;
  (* the journal is newest first: apply it oldest first so the newest wins *)
  List.iter (fun (a, b) -> put a b) (List.rev st.journal);
  buf

let write_byte st addr b =
  check_mapped st ~write:true addr;
  st.journal <- (addr, b land 0xFF) :: st.journal

let read_mem st sz addr =
  let n = bits sz / 8 in
  let rec go i acc =
    if i >= n then acc
    else
      let b = read_byte st (Int64.add addr (Int64.of_int i)) in
      go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
  in
  go 0 0L

let write_mem st sz addr v =
  let n = bits sz / 8 in
  for i = 0 to n - 1 do
    write_byte st
      (Int64.add addr (Int64.of_int i))
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
  done

(** Flush the step's journaled writes into committed memory. The oracle
    driver calls this after a successful step; a faulting step drops the
    journal instead, so no partial instruction is ever visible. *)
let commit_journal st =
  List.iter (fun (a, b) -> Hashtbl.replace st.mem a b) (List.rev st.journal);
  st.journal <- []

let discard_journal st = st.journal <- []

let ea st (m : Insn.mem) =
  let base = match m.Insn.base with Some r -> reg st r | None -> 0L in
  let index =
    match m.Insn.index with
    | Some r -> Int64.mul (reg st r) (Int64.of_int m.Insn.scale)
    | None -> 0L
  in
  Int64.add base (Int64.add index m.Insn.disp)

(* rm/src operand reads zero-extend to the operand size, like loads and
   the uop layer's truncating operand fetch. *)
let read_rm st sz = function
  | Insn.Reg r -> trunc sz (reg st r)
  | Insn.Mem m -> read_mem st sz (ea st m)

let write_rm st sz rm v =
  match rm with
  | Insn.Reg r -> set_reg st sz r v
  | Insn.Mem m -> write_mem st sz (ea st m) v

let src_val st sz = function
  | Insn.RM rm -> read_rm st sz rm
  | Insn.Imm v -> trunc sz v

let require_kernel st =
  if st.mode <> Kernel then raise (Spec_fault Privilege_fault)

(* ------------------------------------------------------------------ *)
(* Per-row semantics                                                   *)
(* ------------------------------------------------------------------ *)

(** What one committed execution unit did with control. [Repeat] is one
    REP-string iteration: rip stays put, matching the sequential core's
    one-commit-per-loop-pass counting (a REP with count k commits k+1
    units: k body passes plus the final exit test). *)
type step = Next | Jump of int64 | Repeat | Halt_step

type sem = state -> Insn.t -> next_rip:int64 -> step

let bad_shape key = raise (Unsupported_insn key)

let strip = function Insn.Locked i -> i | i -> i

let alu_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Alu (op, sz, dst, src) ->
    let a = read_rm st sz dst in
    let b = src_val st sz src in
    let f = st.flags in
    let cf_in = f land Flags.cf_mask <> 0 in
    let r, f' =
      match op with
      | Insn.Add -> add_cc sz a b false f
      | Insn.Adc -> add_cc sz a b cf_in f
      | Insn.Sub | Insn.Cmp -> sub_cc sz a b false f
      | Insn.Sbb -> sub_cc sz a b cf_in f
      | Insn.And -> logic_cc sz (Int64.logand a b) f
      | Insn.Or -> logic_cc sz (Int64.logor a b) f
      | Insn.Xor -> logic_cc sz (Int64.logxor a b) f
    in
    if op <> Insn.Cmp then write_rm st sz dst r;
    st.flags <- f';
    Next
  | _ -> bad_shape "alu"

let test_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Test (sz, dst, src) ->
    let a = read_rm st sz dst in
    let b = src_val st sz src in
    let _, f' = logic_cc sz (Int64.logand a b) st.flags in
    st.flags <- f';
    Next
  | _ -> bad_shape "test"

let mov_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Mov (sz, dst, src) ->
    write_rm st sz dst (src_val st sz src);
    Next
  | _ -> bad_shape "mov"

let movabs_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Movabs (d, v) ->
    st.regs.(d) <- v;
    Next
  | _ -> bad_shape "movabs"

let lea_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Lea (d, m) ->
    st.regs.(d) <- ea st m;
    Next
  | _ -> bad_shape "lea"

let widen_sem ~signed st insn ~next_rip:_ =
  match insn with
  | Insn.Movzx (dsz, ssz, d, rm) | Insn.Movsx (dsz, ssz, d, rm) ->
    let v = read_rm st ssz rm in
    set_reg st dsz d (if signed then sext ssz v else v);
    Next
  | _ -> bad_shape "widen"

let unary_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Unary (op, sz, dst) ->
    let a = read_rm st sz dst in
    (match op with
    | Insn.Not -> write_rm st sz dst (Int64.lognot a)
    | Insn.Neg ->
      let r, f' = sub_cc sz 0L a false st.flags in
      write_rm st sz dst r;
      st.flags <- f'
    | Insn.Inc | Insn.Dec ->
      let r, f' =
        if op = Insn.Inc then add_cc sz a 1L false st.flags
        else sub_cc sz a 1L false st.flags
      in
      write_rm st sz dst r;
      (* inc/dec preserve CF, as on x86 *)
      st.flags <- f' land lnot Flags.cf_mask lor (st.flags land Flags.cf_mask));
    Next
  | _ -> bad_shape "unary"

let shift_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Shift (op, sz, dst, count) ->
    let n =
      match count with
      | Insn.ImmC n -> n land 0xFF
      | Insn.Cl -> Int64.to_int (Int64.logand (reg st Regs.rcx) 0xFFL)
    in
    let a = read_rm st sz dst in
    let r, f' = shift_cc op sz a n st.flags in
    write_rm st sz dst r;
    st.flags <- f';
    Next
  | _ -> bad_shape "shift"

let setcc_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Setcc (c, dst) ->
    write_rm st W64.B1 dst (if cond_true c st.flags then 1L else 0L);
    Next
  | _ -> bad_shape "setcc"

let cmovcc_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Cmovcc (c, sz, d, rm) ->
    let v = read_rm st sz rm in
    (* the not-taken path still merges at the operand size, so a false
       32-bit cmov zero-extends its destination (model deviation) *)
    set_reg st sz d (if cond_true c st.flags then v else reg st d);
    Next
  | _ -> bad_shape "cmovcc"

let imul2_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Imul2 (sz, d, rm) ->
    let b = read_rm st sz rm in
    let r, sig_ = mull sz (reg st d) b in
    set_reg st sz d r;
    st.flags <-
      st.flags
      |> fset Flags.cf_mask sig_
      |> fset Flags.of_mask sig_
      |> zsp sz r;
    Next
  | _ -> bad_shape "imul2"

let muldiv_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Muldiv (op, sz, rm) ->
    if sz = W64.B1 then raise (Unsupported_insn "muldiv B1");
    let v = read_rm st sz rm in
    (match op with
    | Insn.Mul | Insn.Imul1 ->
      let a = reg st Regs.rax in
      let hi = mulh ~signed:(op = Insn.Imul1) sz a v in
      let lo, sig_ = mull sz a v in
      set_reg st sz Regs.rax lo;
      set_reg st sz Regs.rdx hi;
      st.flags <-
        st.flags
        |> fset Flags.cf_mask sig_
        |> fset Flags.of_mask sig_
        |> zsp sz lo
    | Insn.Div | Insn.Idiv ->
      let signed = op = Insn.Idiv in
      let q, r =
        if sz = W64.B8 then
          let hi = reg st Regs.rdx and lo = reg st Regs.rax in
          if signed then div128s ~hi ~lo ~d:v
          else div128u ~hi ~lo ~d:v
        else begin
          let w = bits sz in
          let d = if signed then sext sz v else v in
          if d = 0L then raise (Spec_fault Divide_fault);
          let dividend =
            Int64.logor
              (Int64.shift_left (trunc sz (reg st Regs.rdx)) w)
              (trunc sz (reg st Regs.rax))
          in
          if signed then begin
            (* sign-extend the 2w-bit dividend, then magnitude divide *)
            let s = 64 - (2 * w) in
            let dividend = Int64.shift_right (Int64.shift_left dividend s) s in
            let nd = dividend < 0L and nv = d < 0L in
            let du = if nd then Int64.neg dividend else dividend in
            let vu = if nv then Int64.neg d else d in
            let q, r = div128u ~hi:0L ~lo:du ~d:vu in
            let q = if nd <> nv then Int64.neg q else q in
            let r = if nd then Int64.neg r else r in
            let half = Int64.shift_left 1L (w - 1) in
            if q >= half || q < Int64.neg half then
              raise (Spec_fault Divide_fault);
            (trunc sz q, trunc sz r)
          end
          else begin
            let q, r = div128u ~hi:0L ~lo:dividend ~d in
            if ucmp q (size_mask sz) > 0 then raise (Spec_fault Divide_fault);
            (trunc sz q, trunc sz r)
          end
        end
      in
      set_reg st sz Regs.rax q;
      set_reg st sz Regs.rdx r);
    Next
  | _ -> bad_shape "muldiv"

let push_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Push src ->
    (* memory/immediate data resolves before the decrement; a register
       operand is read at store time, so "push rsp" stores the
       post-decrement rsp (model deviation, see DESIGN.md) *)
    let early =
      match src with
      | Insn.RM (Insn.Mem m) -> Some (read_mem st W64.B8 (ea st m))
      | Insn.Imm v -> Some v
      | Insn.RM (Insn.Reg _) -> None
    in
    st.regs.(Regs.rsp) <- Int64.sub st.regs.(Regs.rsp) 8L;
    let v =
      match (early, src) with
      | Some v, _ -> v
      | None, Insn.RM (Insn.Reg r) -> reg st r
      | None, _ -> assert false
    in
    write_mem st W64.B8 st.regs.(Regs.rsp) v;
    Next
  | _ -> bad_shape "push"

let pop_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Pop dst ->
    let v = read_mem st W64.B8 st.regs.(Regs.rsp) in
    st.regs.(Regs.rsp) <- Int64.add st.regs.(Regs.rsp) 8L;
    (match dst with
    | Insn.Reg d -> st.regs.(d) <- v
    (* a memory destination computes its address with the updated rsp *)
    | Insn.Mem m -> write_mem st W64.B8 (ea st m) v);
    Next
  | _ -> bad_shape "pop"

let call_sem st insn ~next_rip =
  match insn with
  | Insn.Call target ->
    st.regs.(Regs.rsp) <- Int64.sub st.regs.(Regs.rsp) 8L;
    write_mem st W64.B8 st.regs.(Regs.rsp) next_rip;
    Jump target
  | Insn.CallInd rm ->
    let target = read_rm st W64.B8 rm in
    st.regs.(Regs.rsp) <- Int64.sub st.regs.(Regs.rsp) 8L;
    write_mem st W64.B8 st.regs.(Regs.rsp) next_rip;
    Jump target
  | _ -> bad_shape "call"

let ret_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Ret ->
    let v = read_mem st W64.B8 st.regs.(Regs.rsp) in
    st.regs.(Regs.rsp) <- Int64.add st.regs.(Regs.rsp) 8L;
    Jump v
  | _ -> bad_shape "ret"

let jmp_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Jmp target -> Jump target
  | Insn.JmpInd rm -> Jump (read_rm st W64.B8 rm)
  | _ -> bad_shape "jmp"

let jcc_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Jcc (c, target) -> if cond_true c st.flags then Jump target else Next
  | _ -> bad_shape "jcc"

let xchg_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Xchg (sz, dst, r) ->
    let old = read_rm st sz dst in
    write_rm st sz dst (reg st r);
    set_reg st sz r old;
    Next
  | _ -> bad_shape "xchg"

let xadd_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Xadd (sz, dst, r) ->
    let old = read_rm st sz dst in
    let sum, f' = add_cc sz old (reg st r) false st.flags in
    write_rm st sz dst sum;
    set_reg st sz r old;
    st.flags <- f';
    Next
  | _ -> bad_shape "xadd"

let cmpxchg_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Cmpxchg (sz, dst, r) ->
    let old = read_rm st sz dst in
    let rax = reg st Regs.rax in
    let _, f' = sub_cc sz rax old false st.flags in
    let eq = trunc sz rax = old in
    (* the store happens either way (old value written back on miss) *)
    write_rm st sz dst (if eq then reg st r else old);
    set_reg st sz Regs.rax (if eq then rax else old);
    st.flags <- f';
    Next
  | _ -> bad_shape "cmpxchg"

let bittest_sem st insn ~next_rip:_ =
  match strip insn with
  | Insn.Bittest (op, sz, dst, src) ->
    let idx =
      match src with
      | Insn.Breg r -> reg st r
      | Insn.Bimm n -> Int64.of_int n
    in
    (* the bit index wraps within the addressed word even for memory
       operands (model deviation: real x86 bt-mem addresses beyond) *)
    let bit = Int64.to_int (Int64.unsigned_rem idx (Int64.of_int (bits sz))) in
    let a = read_rm st sz dst in
    let mask = Int64.shift_left 1L bit in
    let cf = Int64.logand a mask <> 0L in
    (match op with
    | Insn.Bt -> ()
    | Insn.Bts -> write_rm st sz dst (Int64.logor a mask)
    | Insn.Btr -> write_rm st sz dst (Int64.logand a (Int64.lognot mask))
    | Insn.Btc -> write_rm st sz dst (Int64.logxor a mask));
    st.flags <- fset Flags.cf_mask cf st.flags;
    Next
  | _ -> bad_shape "bittest"

(* REP strings: one committed unit per loop pass; the exit test is its
   own unit. Pointers always advance (REP ignores DF in this model). *)
let string_sem st insn ~next_rip:_ =
  let step sz = Int64.of_int (bits sz / 8) in
  let body = function
    | Insn.Movs (sz, _) ->
      let v = read_mem st sz (reg st Regs.rsi) in
      write_mem st sz (reg st Regs.rdi) v;
      st.regs.(Regs.rsi) <- Int64.add st.regs.(Regs.rsi) (step sz);
      st.regs.(Regs.rdi) <- Int64.add st.regs.(Regs.rdi) (step sz)
    | Insn.Stos (sz, _) ->
      write_mem st sz (reg st Regs.rdi) (reg st Regs.rax);
      st.regs.(Regs.rdi) <- Int64.add st.regs.(Regs.rdi) (step sz)
    | Insn.Lods (sz, _) ->
      let v = read_mem st sz (reg st Regs.rsi) in
      set_reg st sz Regs.rax v;
      st.regs.(Regs.rsi) <- Int64.add st.regs.(Regs.rsi) (step sz)
    | _ -> bad_shape "string"
  in
  match insn with
  | Insn.Movs (_, rep) | Insn.Stos (_, rep) | Insn.Lods (_, rep) ->
    if rep then begin
      if reg st Regs.rcx = 0L then Next
      else begin
        body insn;
        st.regs.(Regs.rcx) <- Int64.sub st.regs.(Regs.rcx) 1L;
        Repeat
      end
    end
    else begin
      body insn;
      Next
    end
  | _ -> bad_shape "string"

let hlt_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Hlt ->
    require_kernel st;
    st.halted <- true;
    Halt_step
  | _ -> bad_shape "hlt"

let pushf_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Pushf ->
    st.regs.(Regs.rsp) <- Int64.sub st.regs.(Regs.rsp) 8L;
    write_mem st W64.B8 st.regs.(Regs.rsp) (Int64.of_int st.flags);
    Next
  | _ -> bad_shape "pushf"

let popf_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Popf ->
    let v = read_mem st W64.B8 st.regs.(Regs.rsp) in
    st.regs.(Regs.rsp) <- Int64.add st.regs.(Regs.rsp) 8L;
    let nf = Int64.to_int v in
    (* user mode cannot change IF *)
    let nf =
      if st.mode = User then
        nf land lnot Flags.if_mask lor (st.flags land Flags.if_mask)
      else nf
    in
    st.flags <- nf;
    Next
  | _ -> bad_shape "popf"

let nop_sem _st _insn ~next_rip:_ = Next

let cpuid_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Cpuid ->
    (* "OPTLsim x_64", as the A_cpuid assist reports *)
    st.regs.(Regs.rax) <- 1L;
    st.regs.(Regs.rbx) <- 0x4C54504FL;
    st.regs.(Regs.rcx) <- 0x206D6973L;
    st.regs.(Regs.rdx) <- 0x34365F78L;
    Next
  | _ -> bad_shape "cpuid"

let fld_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Fld m ->
    st.st0 <- read_mem st W64.B8 (ea st m);
    Next
  | _ -> bad_shape "fld"

let fst_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Fst m ->
    write_mem st W64.B8 (ea st m) st.st0;
    Next
  | _ -> bad_shape "fst"

let fp_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Fp (op, m) ->
    st.st0 <- fbinop op st.st0 (read_mem st W64.B8 (ea st m));
    Next
  | _ -> bad_shape "fp"

let sse_sem st insn ~next_rip:_ =
  match insn with
  | Insn.SseLoad (x, m) ->
    st.xmms.(x) <- read_mem st W64.B8 (ea st m);
    Next
  | Insn.SseStore (m, x) ->
    write_mem st W64.B8 (ea st m) st.xmms.(x);
    Next
  | Insn.SseMov (xd, xs) ->
    st.xmms.(xd) <- st.xmms.(xs);
    Next
  | Insn.Sse (op, xd, xs) ->
    st.xmms.(xd) <- fbinop (sse_fpop op) st.xmms.(xd) st.xmms.(xs);
    Next
  | _ -> bad_shape "sse"

let cvtsi2sd_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Cvtsi2sd (x, r) ->
    st.xmms.(x) <- bits64 (Int64.to_float (reg st r));
    Next
  | _ -> bad_shape "cvtsi2sd"

let cvtsd2si_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Cvtsd2si (r, x) ->
    let fv = f64 st.xmms.(x) in
    st.regs.(r) <-
      (if Float.is_nan fv || fv >= f2i_indefinite || fv <= -.f2i_indefinite
       then Int64.min_int
       else Int64.of_float fv);
    Next
  | _ -> bad_shape "cvtsd2si"

let comisd_sem st insn ~next_rip:_ =
  match insn with
  | Insn.Comisd (xa, xb) ->
    let fa = f64 st.xmms.(xa) and fb = f64 st.xmms.(xb) in
    let zf, pf, cf =
      if Float.is_nan fa || Float.is_nan fb then (true, true, true)
      else if fa > fb then (false, false, false)
      else if fa < fb then (false, false, true)
      else (true, false, false)
    in
    st.flags <-
      st.flags
      |> fset Flags.zf_mask zf
      |> fset Flags.pf_mask pf
      |> fset Flags.cf_mask cf
      |> fset Flags.sf_mask false
      |> fset Flags.of_mask false;
    Next
  | _ -> bad_shape "comisd"

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  key : string;  (* Insn.mnemonic *)
  shape : shape;
  lattice : lattice;
  faults : fault_cond list;
  note : string;  (* model deviations from real x86, "" if none *)
  sem : sem;
}

let all_sizes = [ W64.B1; W64.B2; W64.B4; W64.B8 ]
let wide_sizes = [ W64.B2; W64.B4; W64.B8 ]

let widen_pairs =
  [ (W64.B2, W64.B1); (W64.B4, W64.B1); (W64.B4, W64.B2);
    (W64.B8, W64.B1); (W64.B8, W64.B2); (W64.B8, W64.B4) ]

(* Shift rows: CF/ZF/SF/PF written for any non-zero masked count; OF only
   at count 1, hence Undefined in the static lattice. *)
let shift_lattice =
  { l_cf = Written; l_pf = Written; l_zf = Written; l_sf = Written;
    l_of = Undefined }

let mul_lattice =
  (* x86 leaves ZF/SF/PF undefined after multiplies; the model defines
     them from the low result, so only oracle/core agreement is checked *)
  { l_cf = Written; l_pf = Undefined; l_zf = Undefined; l_sf = Undefined;
    l_of = Written }

let cf_only =
  { all_preserved with l_cf = Written }

let rows : row list =
  let alu op lat note =
    { key = Insn.alu_name op; shape = Alu_shape all_sizes; lattice = lat;
      faults = [ F_pf ]; note; sem = alu_sem }
  in
  [
    alu Insn.Add all_written "";
    alu Insn.Or all_written "logic ops clear CF/OF";
    alu Insn.Adc all_written "";
    alu Insn.Sbb all_written "";
    alu Insn.And all_written "logic ops clear CF/OF";
    alu Insn.Sub all_written "";
    alu Insn.Xor all_written "logic ops clear CF/OF";
    alu Insn.Cmp all_written "";
    { key = "test"; shape = Alu_shape all_sizes; lattice = all_written;
      faults = [ F_pf ]; note = "logic flags, no writeback"; sem = test_sem };
    { key = "mov"; shape = Alu_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = mov_sem };
    { key = "movabs"; shape = Plain; lattice = all_preserved; faults = [];
      note = ""; sem = movabs_sem };
    { key = "lea"; shape = Plain; lattice = all_preserved; faults = [];
      note = ""; sem = lea_sem };
    { key = "movzx"; shape = Widen_shape widen_pairs;
      lattice = all_preserved; faults = [ F_pf ]; note = "";
      sem = widen_sem ~signed:false };
    { key = "movsx"; shape = Widen_shape widen_pairs;
      lattice = all_preserved; faults = [ F_pf ]; note = "";
      sem = widen_sem ~signed:true };
    { key = "not"; shape = Rm_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = unary_sem };
    { key = "neg"; shape = Rm_shape all_sizes; lattice = all_written;
      faults = [ F_pf ]; note = ""; sem = unary_sem };
    { key = "inc"; shape = Rm_shape all_sizes;
      lattice = { all_written with l_cf = Preserved }; faults = [ F_pf ];
      note = "CF preserved, as on x86"; sem = unary_sem };
    { key = "dec"; shape = Rm_shape all_sizes;
      lattice = { all_written with l_cf = Preserved }; faults = [ F_pf ];
      note = "CF preserved, as on x86"; sem = unary_sem };
    { key = "shl"; shape = Shift_shape all_sizes; lattice = shift_lattice;
      faults = [ F_pf ];
      note = "count 0 leaves all flags; OF written only at count 1; \
              CF at count = width is the operand's LSB";
      sem = shift_sem };
    { key = "shr"; shape = Shift_shape all_sizes; lattice = shift_lattice;
      faults = [ F_pf ];
      note = "count 0 leaves all flags; OF written only at count 1";
      sem = shift_sem };
    { key = "sar"; shape = Shift_shape all_sizes; lattice = shift_lattice;
      faults = [ F_pf ];
      note = "count 0 leaves all flags; OF written only at count 1";
      sem = shift_sem };
    { key = "rol"; shape = Shift_shape all_sizes;
      lattice = shift_lattice; faults = [ F_pf ];
      note = "model recomputes ZF/SF/PF from the result (x86 preserves \
              them); count taken mod width";
      sem = shift_sem };
    { key = "ror"; shape = Shift_shape all_sizes;
      lattice = shift_lattice; faults = [ F_pf ];
      note = "model recomputes ZF/SF/PF from the result (x86 preserves \
              them); count taken mod width";
      sem = shift_sem };
    { key = "setcc"; shape = Setcc_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = setcc_sem };
    { key = "cmovcc"; shape = Reg_rm_shape wide_sizes;
      lattice = all_preserved; faults = [ F_pf ];
      note = "a false 32-bit cmov still zero-extends its destination";
      sem = cmovcc_sem };
    { key = "imul2"; shape = Reg_rm_shape wide_sizes; lattice = mul_lattice;
      faults = [ F_pf ];
      note = "CF=OF = product does not fit the signed operand width; \
              ZF/SF/PF model-defined from the low result (x86: undefined)";
      sem = imul2_sem };
    { key = "mul"; shape = Mul_shape wide_sizes; lattice = mul_lattice;
      faults = [ F_pf ];
      note = "model uses the signed-fit rule for CF/OF even for unsigned \
              mul (x86 tests the high half); ZF/SF/PF from the low result";
      sem = muldiv_sem };
    { key = "imul"; shape = Mul_shape wide_sizes; lattice = mul_lattice;
      faults = [ F_pf ];
      note = "ZF/SF/PF model-defined from the low result (x86: undefined)";
      sem = muldiv_sem };
    { key = "div"; shape = Mul_shape wide_sizes; lattice = all_preserved;
      faults = [ F_de; F_pf ];
      note = "model preserves all flags (x86: undefined); #DE on divide \
              by zero or quotient overflow";
      sem = muldiv_sem };
    { key = "idiv"; shape = Mul_shape wide_sizes; lattice = all_preserved;
      faults = [ F_de; F_pf ];
      note = "model preserves all flags (x86: undefined); #DE on divide \
              by zero or quotient overflow";
      sem = muldiv_sem };
    { key = "push"; shape = Push_shape; lattice = all_preserved;
      faults = [ F_pf ];
      note = "push rsp stores the post-decrement rsp (model deviation)";
      sem = push_sem };
    { key = "pop"; shape = Pop_shape; lattice = all_preserved;
      faults = [ F_pf ];
      note = "a memory destination computes its address with the \
              incremented rsp";
      sem = pop_sem };
    { key = "call"; shape = Branch_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = call_sem };
    { key = "ret"; shape = Branch_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = ret_sem };
    { key = "jmp"; shape = Branch_shape; lattice = all_preserved;
      faults = []; note = ""; sem = jmp_sem };
    { key = "jcc"; shape = Branch_shape; lattice = all_preserved;
      faults = []; note = ""; sem = jcc_sem };
    { key = "xchg"; shape = Xchg_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ]; note = "memory forms are implicitly locked";
      sem = xchg_sem };
    { key = "xadd"; shape = Xchg_shape all_sizes; lattice = all_written;
      faults = [ F_pf ]; note = ""; sem = xadd_sem };
    { key = "cmpxchg"; shape = Xchg_shape all_sizes; lattice = all_written;
      faults = [ F_pf ];
      note = "flags from rax - dest; the store happens even on miss \
              (old value written back)";
      sem = cmpxchg_sem };
    { key = "bt"; shape = Bit_shape wide_sizes; lattice = cf_only;
      faults = [ F_pf ];
      note = "bit index wraps within the addressed word even for memory \
              operands (model deviation)";
      sem = bittest_sem };
    { key = "bts"; shape = Bit_shape wide_sizes; lattice = cf_only;
      faults = [ F_pf ]; note = "same index wrap as bt"; sem = bittest_sem };
    { key = "btr"; shape = Bit_shape wide_sizes; lattice = cf_only;
      faults = [ F_pf ]; note = "same index wrap as bt"; sem = bittest_sem };
    { key = "btc"; shape = Bit_shape wide_sizes; lattice = cf_only;
      faults = [ F_pf ]; note = "same index wrap as bt"; sem = bittest_sem };
    { key = "movs"; shape = String_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ];
      note = "REP ignores DF (always forward); one commit per iteration \
              plus the exit test";
      sem = string_sem };
    { key = "stos"; shape = String_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ]; note = "REP ignores DF (always forward)";
      sem = string_sem };
    { key = "lods"; shape = String_shape all_sizes; lattice = all_preserved;
      faults = [ F_pf ]; note = "REP ignores DF (always forward)";
      sem = string_sem };
    { key = "hlt"; shape = Plain; lattice = all_preserved;
      faults = [ F_gp_user ];
      note = "privileged; halts with rip at the next instruction";
      sem = hlt_sem };
    { key = "pushf"; shape = Flagio_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = pushf_sem };
    { key = "popf"; shape = Flagio_shape; lattice = all_written;
      faults = [ F_pf ]; note = "user mode cannot change IF";
      sem = popf_sem };
    { key = "nop"; shape = Plain; lattice = all_preserved; faults = [];
      note = ""; sem = nop_sem };
    { key = "pause"; shape = Plain; lattice = all_preserved; faults = [];
      note = ""; sem = nop_sem };
    { key = "cpuid"; shape = Plain; lattice = all_preserved; faults = [];
      note = "rax/rbx/rcx/rdx <- the fixed \"OPTLsim x_64\" identity";
      sem = cpuid_sem };
    { key = "fld"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fld_sem };
    { key = "fst"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fst_sem };
    { key = "fadd"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fp_sem };
    { key = "fsub"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fp_sem };
    { key = "fmul"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fp_sem };
    { key = "fdiv"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = fp_sem };
    { key = "sseload"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = sse_sem };
    { key = "ssestore"; shape = Fp_mem_shape; lattice = all_preserved;
      faults = [ F_pf ]; note = ""; sem = sse_sem };
    { key = "ssemov"; shape = Fp_reg_shape; lattice = all_preserved;
      faults = []; note = ""; sem = sse_sem };
    { key = "addsd"; shape = Fp_reg_shape; lattice = all_preserved;
      faults = []; note = ""; sem = sse_sem };
    { key = "subsd"; shape = Fp_reg_shape; lattice = all_preserved;
      faults = []; note = ""; sem = sse_sem };
    { key = "mulsd"; shape = Fp_reg_shape; lattice = all_preserved;
      faults = []; note = ""; sem = sse_sem };
    { key = "divsd"; shape = Fp_reg_shape; lattice = all_preserved;
      faults = []; note = ""; sem = sse_sem };
    { key = "cvtsi2sd"; shape = Cvt_shape; lattice = all_preserved;
      faults = []; note = ""; sem = cvtsi2sd_sem };
    { key = "cvtsd2si"; shape = Cvt_shape; lattice = all_preserved;
      faults = [];
      note = "NaN and out-of-range convert to the x86 integer indefinite \
              (0x8000000000000000)";
      sem = cvtsd2si_sem };
    { key = "comisd"; shape = Fp_reg_shape; lattice = all_written;
      faults = [];
      note = "unordered sets ZF/PF/CF; SF/OF cleared"; sem = comisd_sem };
  ]

type table = (string, row) Hashtbl.t

let table : table =
  let t = Hashtbl.create 97 in
  List.iter
    (fun r ->
      if Hashtbl.mem t r.key then invalid_arg ("Spec: duplicate row " ^ r.key);
      Hashtbl.add t r.key r)
    rows;
  t

let find (t : table) key = Hashtbl.find_opt t key
let key_of_insn insn = Insn.mnemonic insn

(** Copy the table (rows are immutable records, so a shallow copy is a
    safe base for mutation helpers). *)
let copy_table (t : table) : table = Hashtbl.copy t

(** Plant a spec bug for the harness self-test: return a copy of [t]
    where [key]'s semantics restore the flag bits in [mask] to their
    pre-instruction values (i.e. the row no longer writes them) and the
    lattice claims they are Preserved. The three-way fuzz harness must
    localize the resulting divergence to the oracle. *)
let drop_flag_write ~key ~mask (t : table) : table =
  let t = copy_table t in
  (match Hashtbl.find_opt t key with
  | None -> invalid_arg ("Spec.drop_flag_write: no row " ^ key)
  | Some row ->
    let sem st insn ~next_rip =
      let before = st.flags in
      let step = row.sem st insn ~next_rip in
      st.flags <- st.flags land lnot mask lor (before land mask);
      step
    in
    let fix e name = if mask land e <> 0 then Preserved else effect_of row.lattice name in
    let lattice =
      { l_cf = fix Flags.cf_mask "CF"; l_pf = fix Flags.pf_mask "PF";
        l_zf = fix Flags.zf_mask "ZF"; l_sf = fix Flags.sf_mask "SF";
        l_of = fix Flags.of_mask "OF" }
    in
    Hashtbl.replace t key { row with sem; lattice });
  t

(* ------------------------------------------------------------------ *)
(* Generator coverage                                                  *)
(* ------------------------------------------------------------------ *)

(** Every mnemonic the fuzz generator ([lib/fuzz/fuzzgen.ml]) can emit,
    including prologue/epilogue instructions. The conformance coverage
    gate requires a spec row for each. *)
let generator_keys =
  [ "add"; "or"; "adc"; "sbb"; "and"; "sub"; "xor"; "cmp"; "test"; "mov";
    "movabs"; "lea"; "movzx"; "movsx"; "not"; "neg"; "inc"; "dec"; "shl";
    "shr"; "sar"; "rol"; "ror"; "setcc"; "cmovcc"; "imul2"; "mul"; "imul";
    "div"; "idiv"; "push"; "pop"; "pushf"; "popf"; "call"; "ret"; "jmp";
    "jcc"; "xchg"; "xadd"; "cmpxchg"; "bt"; "bts"; "btr"; "btc"; "movs";
    "stos"; "lods"; "hlt"; "nop"; "pause"; "cpuid"; "fld"; "fst"; "fadd";
    "fsub"; "fmul"; "fdiv"; "sseload"; "ssestore"; "ssemov"; "addsd";
    "subsd"; "mulsd"; "divsd"; "cvtsi2sd"; "cvtsd2si"; "comisd" ]

type coverage = {
  covered : string list;  (* generator keys with a spec row *)
  missing : string list;  (* generator keys with no row *)
  extra : string list;  (* rows no generator path reaches *)
}

let coverage ?(t = table) () =
  let covered, missing =
    List.partition (fun k -> Hashtbl.mem t k) generator_keys
  in
  let extra =
    Hashtbl.fold
      (fun k _ acc -> if List.mem k generator_keys then acc else k :: acc)
      t []
    |> List.sort compare
  in
  { covered; missing; extra }

let coverage_pct c =
  let n = List.length c.covered and m = List.length c.missing in
  if n + m = 0 then 100.0 else 100.0 *. float_of_int n /. float_of_int (n + m)
