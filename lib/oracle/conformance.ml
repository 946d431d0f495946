(** Derived conformance suites: everything here is generated from the
    spec table ([Spec.rows]) — no per-instruction test code.

    Two suites:

    - {b Properties}: for every spec row, sweep the corner-operand set
      (0, ±1, MIN, MAX, sign boundaries, alternating bit patterns) over
      the row's operand shapes under three incoming-flag presets, run
      each program in lockstep on the sequential core and the oracle
      ([Cross.check]), and check the row's flag lattice at the target
      instruction: [Preserved] flags must be bit-identical across it on
      every case, [Written] flags must change on at least one case in
      the row's sweep (non-vacuity), [Undefined] flags are only held to
      oracle/core agreement (which the lockstep compare gives for free).

    - {b Exceptions}: for every fault condition a row declares (#DE,
      #GP-in-user, #PF), build one trigger program, compare the oracle's
      predicted vector (and CR2 for #PF) against real delivery through
      the sequential core's IDT path ([lib/arch/assists.ml]). *)

open Ptl_util
open Ptl_isa
open Ptl_arch
module Spec = Ptl_spec.Spec

type level = [ `Quick | `Full ]

let scratch = Machine.heap_base
let base = 0x40_0000L

(* Memory ranges compared at the end of every property run: the scratch
   window all memory operands target, and the top of the stack that
   push/pop/call/pushf traffic lands in. *)
let prop_mem_ranges =
  [ (scratch, 0x400); (Int64.sub Machine.stack_top 0x100L, 0x100) ]

let movq r v = Insn.Movabs (r, v)
let md disp = Insn.mem_bd Regs.r15 (Int64.of_int disp)

(* Seed a scratch quadword through r13 (also deterministically clears
   whatever the previous case left there). *)
let init_mem disp v =
  [ movq Regs.r13 v; Insn.Mov (W64.B8, Insn.Mem (md disp), Insn.RM (Insn.Reg Regs.r13)) ]

(* ------------------------------------------------------------------ *)
(* Corner operands                                                     *)
(* ------------------------------------------------------------------ *)

let operand_sets (level : level) sz =
  let m = Spec.size_mask sz in
  let top = Int64.shift_left 1L (Spec.bits sz - 1) in
  let maxp = Int64.logand (Int64.lognot top) m in
  let all =
    List.sort_uniq compare
      [ 0L; 1L; m; top; maxp;
        Int64.logand 0x5555_5555_5555_5555L m;
        Int64.logand 0xAAAA_AAAA_AAAA_AAAAL m ]
  in
  let prim =
    match level with
    | `Quick -> List.sort_uniq compare [ 1L; top ]
    | `Full -> List.sort_uniq compare [ 0L; 1L; m; top; maxp ]
  in
  (prim, all)

let pairs level sz =
  let prim, all = operand_sets level sz in
  let snd_set = match level with `Quick -> [ 0L; 1L; Spec.size_mask sz ] | `Full -> all in
  List.concat_map (fun a -> List.map (fun b -> (a, b)) snd_set) prim

let singles level sz = snd (operand_sets level sz)
  |> fun all -> (match level with `Quick -> [ 1L; Int64.shift_left 1L (Spec.bits sz - 1) ] | `Full -> all)

let sizes_for (level : level) szs =
  match level with
  | `Full -> szs
  | `Quick -> List.filter (fun s -> s = W64.B1 || s = W64.B8) szs
              |> fun l -> if l = [] then [ List.hd szs ] else l

let all_conds = List.init 16 Flags.cond_of_code

(* ------------------------------------------------------------------ *)
(* Incoming-flag presets                                               *)
(* ------------------------------------------------------------------ *)

(* Three flag climates so "preserved" means preserved from both 0 and 1,
   and a written flag visibly changes against at least one of them:
   all-clear, ZF+PF, and SF+OF+PF+CF. *)
let presets =
  [ ("clear",
     [ movq Regs.r13 1L;
       Insn.Test (W64.B8, Insn.Reg Regs.r13, Insn.RM (Insn.Reg Regs.r13)) ]);
    ("zp",
     [ movq Regs.r13 0L;
       Insn.Test (W64.B8, Insn.Reg Regs.r13, Insn.RM (Insn.Reg Regs.r13)) ]);
    ("scop",
     [ movq Regs.r13 Int64.max_int;
       Insn.Alu (Insn.Add, W64.B8, Insn.Reg Regs.r13, Insn.Imm 1L);
       Insn.Bittest (Insn.Bt, W64.B8, Insn.Reg Regs.r13, Insn.Bimm 63) ]) ]

(* ------------------------------------------------------------------ *)
(* Case generation per shape                                           *)
(* ------------------------------------------------------------------ *)

(** One generated program body: [c_emit] writes the instructions after
    the prologue and flag preset; the target instruction occupies
    committed units [c_before, c_before + c_units) of the body. *)
type case = {
  c_name : string;
  c_emit : Asm.t -> unit;
  c_before : int;
  c_units : int;
}

let line ?(units = 1) name setup target =
  { c_name = name;
    c_emit =
      (fun a ->
        Asm.inss a setup;
        Asm.ins a target;
        Asm.ins a Insn.Hlt);
    c_before = List.length setup;
    c_units = units }

let sz_name sz = string_of_int (Spec.bits sz)

let alu_target key sz dst src =
  match key with
  | "test" -> Insn.Test (sz, dst, src)
  | "mov" -> Insn.Mov (sz, dst, src)
  | "add" -> Insn.Alu (Insn.Add, sz, dst, src)
  | "or" -> Insn.Alu (Insn.Or, sz, dst, src)
  | "adc" -> Insn.Alu (Insn.Adc, sz, dst, src)
  | "sbb" -> Insn.Alu (Insn.Sbb, sz, dst, src)
  | "and" -> Insn.Alu (Insn.And, sz, dst, src)
  | "sub" -> Insn.Alu (Insn.Sub, sz, dst, src)
  | "xor" -> Insn.Alu (Insn.Xor, sz, dst, src)
  | "cmp" -> Insn.Alu (Insn.Cmp, sz, dst, src)
  | k -> invalid_arg ("Conformance.alu_target: " ^ k)

let unary_of_key = function
  | "not" -> Insn.Not | "neg" -> Insn.Neg | "inc" -> Insn.Inc | "dec" -> Insn.Dec
  | k -> invalid_arg ("Conformance.unary_of_key: " ^ k)

let shift_of_key = function
  | "shl" -> Insn.Shl | "shr" -> Insn.Shr | "sar" -> Insn.Sar
  | "rol" -> Insn.Rol | "ror" -> Insn.Ror
  | k -> invalid_arg ("Conformance.shift_of_key: " ^ k)

let bittest_of_key = function
  | "bt" -> Insn.Bt | "bts" -> Insn.Bts | "btr" -> Insn.Btr | "btc" -> Insn.Btc
  | k -> invalid_arg ("Conformance.bittest_of_key: " ^ k)

let muldiv_of_key = function
  | "mul" -> Insn.Mul | "imul" -> Insn.Imul1 | "div" -> Insn.Div
  | "idiv" -> Insn.Idiv
  | k -> invalid_arg ("Conformance.muldiv_of_key: " ^ k)

let fpop_of_key = function
  | "fadd" -> Insn.Fadd | "fsub" -> Insn.Fsub | "fmul" -> Insn.Fmul
  | "fdiv" -> Insn.Fdiv
  | k -> invalid_arg ("Conformance.fpop_of_key: " ^ k)

let sse2_of_key = function
  | "addsd" -> Insn.Addsd | "subsd" -> Insn.Subsd | "mulsd" -> Insn.Mulsd
  | "divsd" -> Insn.Divsd
  | k -> invalid_arg ("Conformance.sse2_of_key: " ^ k)

let alu_cases level key szs =
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun (a, b) ->
          let nm form = Printf.sprintf "%s%s.%s a=%Lx b=%Lx" key n form a b in
          let rr =
            line (nm "rr") [ movq Regs.r10 a; movq Regs.r11 b ]
              (alu_target key sz (Insn.Reg Regs.r10) (Insn.RM (Insn.Reg Regs.r11)))
          in
          let ri =
            if Encode.imm_encodable sz (Encode.normalize_imm sz b) then
              [ line (nm "ri") [ movq Regs.r10 a ]
                  (alu_target key sz (Insn.Reg Regs.r10) (Insn.Imm (Encode.normalize_imm sz b))) ]
            else []
          in
          let mr =
            line (nm "mr") (init_mem 0x40 a @ [ movq Regs.r11 b ])
              (alu_target key sz (Insn.Mem (md 0x40)) (Insn.RM (Insn.Reg Regs.r11)))
          in
          let rm =
            line (nm "rm") (init_mem 0x40 b @ [ movq Regs.r10 a ])
              (alu_target key sz (Insn.Reg Regs.r10) (Insn.RM (Insn.Mem (md 0x40))))
          in
          match level with
          | `Quick -> rr :: ri
          | `Full -> (rr :: ri) @ [ mr; rm ])
        (pairs level sz))
    (sizes_for level szs)

let rm_cases level key szs =
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun a ->
          let nm form = Printf.sprintf "%s%s.%s a=%Lx" key n form a in
          let r =
            line (nm "r") [ movq Regs.r10 a ]
              (Insn.Unary (unary_of_key key, sz, Insn.Reg Regs.r10))
          in
          let m =
            line (nm "m") (init_mem 0x40 a)
              (Insn.Unary (unary_of_key key, sz, Insn.Mem (md 0x40)))
          in
          match level with `Quick -> [ r ] | `Full -> [ r; m ])
        (singles level sz))
    (sizes_for level szs)

let shift_counts level sz =
  let w = Spec.bits sz in
  let l =
    match level with
    | `Quick -> [ 0; 1; w - 1; w; 65 ]
    | `Full -> [ 0; 1; 7; 8; 9; 15; 16; 17; 31; 32; 33; 63; 64; 65; 66 ]
  in
  List.sort_uniq compare (List.filter (fun c -> c >= 0 && c <= 66) l)

let shift_cases level key szs =
  let op = shift_of_key key in
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun a ->
          List.concat_map
            (fun c ->
              let nm form =
                Printf.sprintf "%s%s.%s a=%Lx c=%d" key n form a c
              in
              let immc =
                line (nm "imm") [ movq Regs.r10 a ]
                  (Insn.Shift (op, sz, Insn.Reg Regs.r10, Insn.ImmC c))
              in
              let cl =
                line (nm "cl")
                  [ movq Regs.r10 a; movq Regs.rcx (Int64.of_int c) ]
                  (Insn.Shift (op, sz, Insn.Reg Regs.r10, Insn.Cl))
              in
              let m =
                line (nm "m") (init_mem 0x40 a)
                  (Insn.Shift (op, sz, Insn.Mem (md 0x40), Insn.ImmC c))
              in
              match level with
              | `Quick -> [ immc ]
              | `Full -> [ immc; cl ] @ (if c = 1 then [ m ] else []))
            (shift_counts level sz))
        (singles level sz))
    (sizes_for level szs)

let widen_cases level key prs =
  let signed = String.equal key "movsx" in
  let target dsz ssz rm =
    if signed then Insn.Movsx (dsz, ssz, Regs.r10, rm)
    else Insn.Movzx (dsz, ssz, Regs.r10, rm)
  in
  let prs = match level with `Quick -> [ List.hd prs; List.nth prs (List.length prs - 1) ] | `Full -> prs in
  List.concat_map
    (fun (dsz, ssz) ->
      List.concat_map
        (fun a ->
          let nm form =
            Printf.sprintf "%s%d_%d.%s a=%Lx" key (Spec.bits dsz) (Spec.bits ssz) form a
          in
          let r =
            line (nm "r")
              [ movq Regs.r10 0xDEAD_BEEF_CAFE_F00DL; movq Regs.r11 a ]
              (target dsz ssz (Insn.Reg Regs.r11))
          in
          let m =
            line (nm "m")
              (init_mem 0x40 a @ [ movq Regs.r10 0xDEAD_BEEF_CAFE_F00DL ])
              (target dsz ssz (Insn.Mem (md 0x40)))
          in
          match level with `Quick -> [ r ] | `Full -> [ r; m ])
        (singles level ssz))
    prs

let imul2_cases level szs =
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun (a, b) ->
          let nm form = Printf.sprintf "imul2_%s.%s a=%Lx b=%Lx" n form a b in
          let r =
            line (nm "r") [ movq Regs.r10 a; movq Regs.r11 b ]
              (Insn.Imul2 (sz, Regs.r10, Insn.Reg Regs.r11))
          in
          let m =
            line (nm "m") (init_mem 0x40 b @ [ movq Regs.r10 a ])
              (Insn.Imul2 (sz, Regs.r10, Insn.Mem (md 0x40)))
          in
          match level with `Quick -> [ r ] | `Full -> [ r; m ])
        (pairs level sz))
    (sizes_for level szs)

let cmovcc_cases level szs =
  let conds =
    match level with
    | `Quick -> [ Flags.E; Flags.NE ]
    | `Full -> [ Flags.E; Flags.NE; Flags.B; Flags.AE; Flags.S; Flags.L; Flags.G; Flags.P ]
  in
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun cond ->
          let cn = Flags.cond_name cond in
          let a = 0xDEAD_BEEF_CAFE_F00DL and b = 0x0123_4567_89AB_CDEFL in
          let r =
            line (Printf.sprintf "cmov%s_%s.r" cn n)
              [ movq Regs.r10 a; movq Regs.r11 b ]
              (Insn.Cmovcc (cond, sz, Regs.r10, Insn.Reg Regs.r11))
          in
          let m =
            line (Printf.sprintf "cmov%s_%s.m" cn n)
              (init_mem 0x40 b @ [ movq Regs.r10 a ])
              (Insn.Cmovcc (cond, sz, Regs.r10, Insn.Mem (md 0x40)))
          in
          match level with `Quick -> [ r ] | `Full -> [ r; m ])
        conds)
    (sizes_for level szs)

let muldiv_cases level key szs =
  let op = muldiv_of_key key in
  let target sz rm = Insn.Muldiv (op, sz, rm) in
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      if key = "mul" || key = "imul" then
        List.concat_map
          (fun (a, b) ->
            let nm form = Printf.sprintf "%s%s.%s a=%Lx b=%Lx" key n form a b in
            let setup d =
              [ movq Regs.rax a; movq Regs.rdx 0x1111_2222_3333_4444L;
                movq Regs.r11 d ]
            in
            let r = line (nm "r") (setup b) (target sz (Insn.Reg Regs.r11)) in
            let m =
              line (nm "m") (init_mem 0x40 b @ setup 0L)
                (target sz (Insn.Mem (md 0x40)))
            in
            match level with `Quick -> [ r ] | `Full -> [ r; m ])
          (pairs level sz)
      else
        (* Safe (no #DE) dividend/divisor triples: quotient fits whenever
           the high half is less than the divisor (unsigned) or the
           dividend is small (signed). Faulting combinations are covered
           by the exception suite. *)
        let neg v = Int64.neg v in
        let m64 = Spec.size_mask sz in
        let maxp = Int64.logand (Int64.lognot (Int64.shift_left 1L (Spec.bits sz - 1))) m64 in
        let triples =
          if key = "div" then
            [ (0L, 5L, 1L); (0L, maxp, 3L); (0L, m64, m64); (1L, 7L, 3L);
              (0L, 100L, 7L); (2L, m64, 5L) ]
          else
            [ (0L, 5L, 1L); (0L, 100L, 3L); (0L, maxp, 3L); (neg 1L, neg 5L, 3L);
              (neg 1L, neg 100L, neg 3L); (0L, maxp, m64) ]
        in
        let triples = match level with `Quick -> [ List.hd triples; List.nth triples 3 ] | `Full -> triples in
        List.concat_map
          (fun (hi, lo, d) ->
            let nm form =
              Printf.sprintf "%s%s.%s hi=%Lx lo=%Lx d=%Lx" key n form hi lo d
            in
            let setup dd =
              [ movq Regs.rax lo; movq Regs.rdx hi; movq Regs.r11 dd ]
            in
            let r = line (nm "r") (setup d) (target sz (Insn.Reg Regs.r11)) in
            let m =
              line (nm "m") (init_mem 0x40 d @ setup 0L)
                (target sz (Insn.Mem (md 0x40)))
            in
            match level with `Quick -> [ r ] | `Full -> [ r; m ])
          triples)
    (sizes_for level szs)

let push_cases level =
  let vals = match level with `Quick -> [ 1L ] | `Full -> [ 0L; 1L; -1L; Int64.min_int ] in
  List.concat_map
    (fun a ->
      [ line (Printf.sprintf "push.r a=%Lx" a) [ movq Regs.r10 a ]
          (Insn.Push (Insn.RM (Insn.Reg Regs.r10)));
        line (Printf.sprintf "push.m a=%Lx" a) (init_mem 0x40 a)
          (Insn.Push (Insn.RM (Insn.Mem (md 0x40)))) ])
    vals
  @ [ line "push.rsp" [] (Insn.Push (Insn.RM (Insn.Reg Regs.rsp)));
      line "push.imm" [] (Insn.Push (Insn.Imm 0x1234L));
      line "push.imm_neg" [] (Insn.Push (Insn.Imm (-5L))) ]

let pop_cases level =
  let vals = match level with `Quick -> [ 0x1234L ] | `Full -> [ 0x1234L; -1L ] in
  List.concat_map
    (fun a ->
      let pre = [ movq Regs.r10 a; Insn.Push (Insn.RM (Insn.Reg Regs.r10)) ] in
      [ line (Printf.sprintf "pop.r a=%Lx" a) pre (Insn.Pop (Insn.Reg Regs.r11));
        line (Printf.sprintf "pop.m a=%Lx" a) pre (Insn.Pop (Insn.Mem (md 0x40))) ])
    vals
  @ [ (* pop into rsp itself: the popped value becomes the new rsp *)
      line "pop.rsp"
        [ movq Regs.r10 (Int64.sub Machine.stack_top 0x80L);
          Insn.Push (Insn.RM (Insn.Reg Regs.r10)) ]
        (Insn.Pop (Insn.Reg Regs.rsp)) ]

(* Branch rows get custom label-based programs; the target's commit
   index within the body is fixed regardless of branch direction. *)
let branch_cases level key =
  let mk name emit before =
    { c_name = name; c_emit = emit; c_before = before; c_units = 1 }
  in
  match key with
  | "jmp" ->
    [ mk "jmp.fwd"
        (fun a ->
          Asm.jmp a "fwd";
          Asm.ins a (movq Regs.r12 111L);
          Asm.label a "fwd";
          Asm.ins a Insn.Hlt)
        0;
      mk "jmp.ind"
        (fun a ->
          Asm.lea_label a Regs.r10 "fwd";
          Asm.ins a (Insn.JmpInd (Insn.Reg Regs.r10));
          Asm.ins a (movq Regs.r12 111L);
          Asm.label a "fwd";
          Asm.ins a Insn.Hlt)
        1 ]
  | "jcc" ->
    let conds = match level with `Quick -> [ Flags.E; Flags.NE ] | `Full -> all_conds in
    List.map
      (fun cond ->
        mk (Printf.sprintf "jcc.%s" (Flags.cond_name cond))
          (fun a ->
            Asm.jcc a cond "skip";
            Asm.ins a (movq Regs.r12 111L);
            Asm.label a "skip";
            Asm.ins a Insn.Hlt)
          0)
      conds
  | "call" | "ret" ->
    let emit a =
      Asm.call a "f";
      Asm.ins a (movq Regs.r12 1L);
      Asm.ins a Insn.Hlt;
      Asm.label a "f";
      Asm.ins a (movq Regs.r11 2L);
      Asm.ins a Insn.Ret
    in
    let emit_ind a =
      Asm.lea_label a Regs.r10 "f";
      Asm.ins a (Insn.CallInd (Insn.Reg Regs.r10));
      Asm.ins a (movq Regs.r12 1L);
      Asm.ins a Insn.Hlt;
      Asm.label a "f";
      Asm.ins a (movq Regs.r11 2L);
      Asm.ins a Insn.Ret
    in
    if key = "call" then [ mk "call.direct" emit 0; mk "call.ind" emit_ind 1 ]
    else [ mk "ret" emit 2 ]
  | k -> invalid_arg ("Conformance.branch_cases: " ^ k)

let setcc_cases level =
  let conds = match level with `Quick -> [ Flags.E; Flags.S ] | `Full -> all_conds in
  List.concat_map
    (fun cond ->
      let cn = Flags.cond_name cond in
      let r =
        line (Printf.sprintf "set%s.r" cn)
          [ movq Regs.r10 0xFFFF_FFFF_FFFF_FFFFL ]
          (Insn.Setcc (cond, Insn.Reg Regs.r10))
      in
      let m =
        line (Printf.sprintf "set%s.m" cn) (init_mem 0x40 (-1L))
          (Insn.Setcc (cond, Insn.Mem (md 0x40)))
      in
      match level with `Quick -> [ r ] | `Full -> [ r; m ])
    conds

let xchg_cases level key szs =
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      List.concat_map
        (fun (a, b) ->
          let nm form = Printf.sprintf "%s%s.%s a=%Lx b=%Lx" key n form a b in
          let rax_setup c = [ movq Regs.rax c ] in
          let mk form setup rm =
            let target =
              match key with
              | "xchg" -> Insn.Xchg (sz, rm, Regs.r11)
              | "xadd" -> Insn.Xadd (sz, rm, Regs.r11)
              | "cmpxchg" -> Insn.Cmpxchg (sz, rm, Regs.r11)
              | k -> invalid_arg ("Conformance.xchg_cases: " ^ k)
            in
            line (nm form) setup target
          in
          let cmp_extra =
            (* comparand: a hit and a (near-certain) miss *)
            if key = "cmpxchg" then [ rax_setup a; rax_setup (Int64.lognot a) ]
            else [ [] ]
          in
          List.concat_map
            (fun extra ->
              let r =
                mk "r" ([ movq Regs.r10 a; movq Regs.r11 b ] @ extra)
                  (Insn.Reg Regs.r10)
              in
              let m =
                mk "m" (init_mem 0x40 a @ [ movq Regs.r11 b ] @ extra)
                  (Insn.Mem (md 0x40))
              in
              match level with `Quick -> [ r ] | `Full -> [ r; m ])
            cmp_extra)
        (pairs level sz))
    (sizes_for level szs)

let bit_cases level key szs =
  let op = bittest_of_key key in
  List.concat_map
    (fun sz ->
      let w = Spec.bits sz in
      let n = sz_name sz in
      let imm_idx = match level with `Quick -> [ 0; w - 1 ] | `Full -> [ 0; 1; w - 1 ] in
      let reg_idx =
        match level with
        | `Quick -> [ 1L; Int64.of_int w ]
        | `Full -> [ 0L; 1L; Int64.of_int (w - 1); Int64.of_int w;
                     Int64.of_int (w + 1); 255L; -1L ]
      in
      List.concat_map
        (fun a ->
          let imm_cases =
            List.concat_map
              (fun i ->
                let nm form = Printf.sprintf "%s%s.%s a=%Lx i=%d" key n form a i in
                let r =
                  line (nm "ri") [ movq Regs.r10 a ]
                    (Insn.Bittest (op, sz, Insn.Reg Regs.r10, Insn.Bimm i))
                in
                let m =
                  line (nm "mi") (init_mem 0x40 a)
                    (Insn.Bittest (op, sz, Insn.Mem (md 0x40), Insn.Bimm i))
                in
                match level with `Quick -> [ r ] | `Full -> [ r; m ])
              imm_idx
          in
          let reg_cases =
            List.concat_map
              (fun i ->
                let nm form = Printf.sprintf "%s%s.%s a=%Lx i=%Ld" key n form a i in
                let r =
                  line (nm "rr") [ movq Regs.r10 a; movq Regs.r11 i ]
                    (Insn.Bittest (op, sz, Insn.Reg Regs.r10, Insn.Breg Regs.r11))
                in
                let m =
                  line (nm "mr") (init_mem 0x40 a @ [ movq Regs.r11 i ])
                    (Insn.Bittest (op, sz, Insn.Mem (md 0x40), Insn.Breg Regs.r11))
                in
                match level with `Quick -> [ r ] | `Full -> [ r; m ])
              reg_idx
          in
          imm_cases @ reg_cases)
        (singles level sz))
    (sizes_for level szs)

let string_cases level key szs =
  let target sz rep =
    match key with
    | "movs" -> Insn.Movs (sz, rep)
    | "stos" -> Insn.Stos (sz, rep)
    | "lods" -> Insn.Lods (sz, rep)
    | k -> invalid_arg ("Conformance.string_cases: " ^ k)
  in
  let counts = match level with `Quick -> [ 0; 2 ] | `Full -> [ 0; 1; 3 ] in
  List.concat_map
    (fun sz ->
      let n = sz_name sz in
      let setup count =
        init_mem 0x200 0xA1B2_C3D4_E5F6_0718L
        @ init_mem 0x208 0x1122_3344_5566_7788L
        @ init_mem 0x210 0x99AA_BBCC_DDEE_FF00L
        @ [ movq Regs.rsi (Int64.add scratch 0x200L);
            movq Regs.rdi (Int64.add scratch 0x300L);
            movq Regs.rax 0x0F1E_2D3C_4B5A_6978L;
            movq Regs.rcx (Int64.of_int count) ]
      in
      line (Printf.sprintf "%s%s.once" key n) (setup 7) (target sz false)
      :: List.map
           (fun count ->
             line ~units:(count + 1)
               (Printf.sprintf "rep_%s%s.n%d" key n count)
               (setup count) (target sz true))
           counts)
    (sizes_for level szs)

let flagio_cases key =
  match key with
  | "pushf" -> [ line "pushf" [] Insn.Pushf ]
  | "popf" ->
    List.map
      (fun v ->
        line (Printf.sprintf "popf v=%Lx" v)
          [ movq Regs.r10 v; Insn.Push (Insn.RM (Insn.Reg Regs.r10)) ]
          Insn.Popf)
      [ 0L; 0x8D5L; 0xAD5L; 0x44L ]
  | k -> invalid_arg ("Conformance.flagio_cases: " ^ k)

let f64 f = Int64.bits_of_float f

let fp_values level =
  match level with
  | `Quick -> [ f64 1.5; f64 (-2.25) ]
  | `Full ->
    [ f64 0.0; f64 1.5; f64 (-2.25); f64 1e308; f64 (-0.0); f64 4e-320;
      f64 infinity; f64 neg_infinity ]

let fp_mem_cases level key =
  let vals = fp_values level in
  List.concat_map
    (fun v ->
      let nm = Printf.sprintf "%s v=%Lx" key v in
      match key with
      | "fld" -> [ line nm (init_mem 0x80 v) (Insn.Fld (md 0x80)) ]
      | "fst" ->
        [ line nm (init_mem 0x80 v @ [ Insn.Fld (md 0x80) ]) (Insn.Fst (md 0x88)) ]
      | "fadd" | "fsub" | "fmul" | "fdiv" ->
        List.map
          (fun w ->
            line (Printf.sprintf "%s v=%Lx w=%Lx" key v w)
              (init_mem 0x90 v @ [ Insn.Fld (md 0x90) ] @ init_mem 0x80 w)
              (Insn.Fp (fpop_of_key key, md 0x80)))
          (match level with `Quick -> [ f64 3.0 ] | `Full -> [ f64 3.0; f64 0.0; f64 (-1.5) ])
      | "sseload" -> [ line nm (init_mem 0x80 v) (Insn.SseLoad (2, md 0x80)) ]
      | "ssestore" ->
        [ line nm (init_mem 0x80 v @ [ Insn.SseLoad (2, md 0x80) ])
            (Insn.SseStore (md 0x88, 2)) ]
      | k -> invalid_arg ("Conformance.fp_mem_cases: " ^ k))
    vals

let fp_reg_cases level key =
  let load2 v w = init_mem 0x80 v @ init_mem 0x88 w
                  @ [ Insn.SseLoad (2, md 0x80); Insn.SseLoad (3, md 0x88) ] in
  let val_pairs =
    let base = [ (f64 1.5, f64 3.0); (f64 (-2.0), f64 2.0) ] in
    match level with
    | `Quick -> [ List.hd base ]
    | `Full -> base @ [ (f64 0.0, f64 (-0.0)); (f64 1e308, f64 1e308) ]
  in
  let cmp_pairs =
    (* comisd additionally needs the unordered case *)
    val_pairs @ [ (0x7FF8_0000_0000_0000L, f64 1.0); (f64 1.0, f64 1.0) ]
  in
  match key with
  | "ssemov" ->
    List.map
      (fun (v, w) ->
        line (Printf.sprintf "ssemov v=%Lx" v) (load2 v w) (Insn.SseMov (4, 2)))
      val_pairs
  | "addsd" | "subsd" | "mulsd" | "divsd" ->
    List.map
      (fun (v, w) ->
        line (Printf.sprintf "%s v=%Lx w=%Lx" key v w) (load2 v w)
          (Insn.Sse (sse2_of_key key, 2, 3)))
      val_pairs
  | "comisd" ->
    List.map
      (fun (v, w) ->
        line (Printf.sprintf "comisd v=%Lx w=%Lx" v w) (load2 v w)
          (Insn.Comisd (2, 3)))
      cmp_pairs
  | k -> invalid_arg ("Conformance.fp_reg_cases: " ^ k)

let cvt_cases level key =
  match key with
  | "cvtsi2sd" ->
    List.map
      (fun a ->
        line (Printf.sprintf "cvtsi2sd a=%Lx" a) [ movq Regs.r10 a ]
          (Insn.Cvtsi2sd (2, Regs.r10)))
      (singles level W64.B8)
  | "cvtsd2si" ->
    let vals =
      match level with
      | `Quick -> [ f64 1.5; f64 (-1.5) ]
      | `Full ->
        [ f64 0.0; f64 1.5; f64 (-1.5); f64 0.49; f64 1e18; f64 9.3e18;
          f64 (-9.3e18); f64 infinity; 0x7FF8_0000_0000_0000L ]
    in
    List.map
      (fun v ->
        line (Printf.sprintf "cvtsd2si v=%Lx" v)
          (init_mem 0x80 v @ [ Insn.SseLoad (2, md 0x80); movq Regs.r10 7L ])
          (Insn.Cvtsd2si (Regs.r10, 2)))
      vals
  | k -> invalid_arg ("Conformance.cvt_cases: " ^ k)

let plain_cases level key =
  match key with
  | "movabs" ->
    List.map
      (fun a -> line (Printf.sprintf "movabs a=%Lx" a) [] (movq Regs.r10 a))
      (singles level W64.B8)
  | "lea" ->
    [ line "lea.bd" [] (Insn.Lea (Regs.r10, Insn.mem_bd Regs.r15 0x40L));
      line "lea.bis"
        [ movq Regs.r11 5L ]
        (Insn.Lea
           (Regs.r10,
            Insn.mem ~base:Regs.r15 ~index:Regs.r11 ~scale:4 ~disp:12L ())) ]
  | "nop" -> [ line "nop" [] Insn.Nop ]
  | "pause" -> [ line "pause" [] Insn.Pause ]
  | "cpuid" ->
    [ line "cpuid"
        [ movq Regs.rax 7L; movq Regs.rbx 7L; movq Regs.rcx 7L; movq Regs.rdx 7L ]
        Insn.Cpuid ]
  | "hlt" -> [ line "hlt" [] Insn.Hlt ]
  | k -> invalid_arg ("Conformance.plain_cases: " ^ k)

(** All generated property cases for one spec row. *)
let cases_for (level : level) (row : Spec.row) : case list =
  let key = row.Spec.key in
  match row.Spec.shape with
  | Spec.Alu_shape szs -> alu_cases level key szs
  | Spec.Rm_shape szs -> rm_cases level key szs
  | Spec.Shift_shape szs -> shift_cases level key szs
  | Spec.Widen_shape prs -> widen_cases level key prs
  | Spec.Reg_rm_shape szs ->
    if key = "imul2" then imul2_cases level szs else cmovcc_cases level szs
  | Spec.Mul_shape szs -> muldiv_cases level key szs
  | Spec.Push_shape -> push_cases level
  | Spec.Pop_shape -> pop_cases level
  | Spec.Bit_shape szs -> bit_cases level key szs
  | Spec.String_shape szs -> string_cases level key szs
  | Spec.Xchg_shape szs -> xchg_cases level key szs
  | Spec.Branch_shape -> branch_cases level key
  | Spec.Setcc_shape -> setcc_cases level
  | Spec.Fp_mem_shape -> fp_mem_cases level key
  | Spec.Fp_reg_shape -> fp_reg_cases level key
  | Spec.Cvt_shape -> cvt_cases level key
  | Spec.Flagio_shape -> flagio_cases key
  | Spec.Plain -> plain_cases level key

(* ------------------------------------------------------------------ *)
(* Property runner                                                     *)
(* ------------------------------------------------------------------ *)

type row_result = {
  rr_key : string;
  rr_cases : int;  (* programs run (cases x presets) *)
  rr_failures : (string * string) list;  (* case/preset, what *)
  rr_vacuous : string list;  (* Written flags that never changed *)
}

type report = {
  p_rows : row_result list;
  p_cases : int;
  p_failures : int;
  p_vacuous : int;
}

let run_row ?(table = Spec.table) ?(level = `Full) (row : Spec.row) : row_result =
  let cases = cases_for level row in
  let failures = ref [] in
  let changed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let count = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun (pname, preset) ->
          incr count;
          let a = Asm.create ~base () in
          Asm.ins a (movq Regs.r15 scratch);
          Asm.inss a preset;
          c.c_emit a;
          let image = Asm.assemble a in
          let t_index = 1 + List.length preset + c.c_before in
          let tag = c.c_name ^ "/" ^ pname in
          let fail what = failures := (tag, what) :: !failures in
          let probe ~index ~before ~after =
            if index >= t_index && index < t_index + c.c_units then
              List.iter
                (fun (fname, mask) ->
                  match Spec.effect_of row.Spec.lattice fname with
                  | Spec.Preserved ->
                    if before land mask <> after land mask then
                      fail
                        (Printf.sprintf "%s not preserved (%s -> %s)" fname
                           (Flags.to_string before) (Flags.to_string after))
                  | Spec.Written ->
                    if before land mask <> after land mask then
                      Hashtbl.replace changed fname ()
                  | Spec.Undefined -> ())
                Flags.all_cc
          in
          match Cross.check ~table ~mem_ranges:prop_mem_ranges ~probe image with
          | Cross.Agree _ -> ()
          | Cross.Diverged { after; diffs } ->
            fail
              (Printf.sprintf "diverged after %d units: %s" after
                 (String.concat "; " diffs))
          | Cross.Unsupported { what; _ } -> fail ("no spec row for: " ^ what))
        presets)
    cases;
  let vacuous =
    List.filter_map
      (fun (fname, _) ->
        match Spec.effect_of row.Spec.lattice fname with
        | Spec.Written when not (Hashtbl.mem changed fname) -> Some fname
        | _ -> None)
      Flags.all_cc
  in
  { rr_key = row.Spec.key; rr_cases = !count;
    rr_failures = List.rev !failures; rr_vacuous = vacuous }

let table_rows (t : Spec.table) =
  Hashtbl.fold (fun _ r acc -> r :: acc) t []
  |> List.sort (fun a b -> compare a.Spec.key b.Spec.key)

(** Run the derived property suite over every row of [table]. *)
let run_properties ?(table = Spec.table) ?(level = `Full) ?progress () : report
    =
  let rows = table_rows table in
  let results =
    List.map
      (fun row ->
        (match progress with Some p -> p row.Spec.key | None -> ());
        run_row ~table ~level row)
      rows
  in
  { p_rows = results;
    p_cases = List.fold_left (fun n r -> n + r.rr_cases) 0 results;
    p_failures =
      List.fold_left (fun n r -> n + List.length r.rr_failures) 0 results;
    p_vacuous =
      List.fold_left (fun n r -> n + List.length r.rr_vacuous) 0 results }

(* ------------------------------------------------------------------ *)
(* Exception-condition suite                                           *)
(* ------------------------------------------------------------------ *)

type exc_case = {
  e_name : string;
  e_vector : int;
  e_addr : int64 option;  (* expected CR2 for #PF *)
  e_mode : Spec.mode;
  e_body : Asm.t -> unit;
}

(* An address inside no mapped region: past the end of the 64-page heap. *)
let bad_disp = 0x10_0000L
let bad_addr = Int64.add scratch bad_disp
let mbad = Insn.Mem (Insn.mem_bd Regs.r15 bad_disp)

let exc_line ?(mode = Spec.Kernel) ?addr name vector setup target =
  { e_name = name; e_vector = vector; e_addr = addr; e_mode = mode;
    e_body =
      (fun a ->
        Asm.ins a (movq Regs.r15 scratch);
        Asm.inss a setup;
        Asm.ins a target) }

(** Trigger cases derived from a row's declared fault conditions. *)
let exc_cases_for (row : Spec.row) : exc_case list =
  let key = row.Spec.key in
  List.concat_map
    (fun fc ->
      match (fc, row.Spec.shape) with
      | Spec.F_gp_user, _ ->
        [ { e_name = key ^ ".gp_user"; e_vector = 13; e_addr = None;
            e_mode = Spec.User;
            e_body = (fun a -> Asm.ins a Insn.Hlt) } ]
      | Spec.F_de, Spec.Mul_shape _ ->
        let op = muldiv_of_key key in
        let mk name hi lo d =
          exc_line (key ^ "." ^ name) 0
            [ movq Regs.rax lo; movq Regs.rdx hi; movq Regs.r11 d ]
            (Insn.Muldiv (op, W64.B8, Insn.Reg Regs.r11))
        in
        if key = "div" then
          [ mk "de_zero" 0L 5L 0L; mk "de_overflow" 5L 0L 2L ]
        else
          [ mk "de_zero" 0L 5L 0L;
            mk "de_overflow" (-1L) Int64.min_int (-1L) ]
      | Spec.F_de, _ -> []
      | Spec.F_pf, shape -> (
        let pf name setup target =
          [ exc_line ~addr:bad_addr (key ^ "." ^ name) 14 setup target ]
        in
        let pf_at name addr setup target =
          [ exc_line ~addr (key ^ "." ^ name) 14 setup target ]
        in
        match shape with
        | Spec.Alu_shape _ ->
          pf "pf_dst" [ movq Regs.r11 1L ]
            (alu_target key W64.B8 mbad (Insn.RM (Insn.Reg Regs.r11)))
        | Spec.Rm_shape _ ->
          pf "pf" [] (Insn.Unary (unary_of_key key, W64.B8, mbad))
        | Spec.Shift_shape _ ->
          pf "pf" [] (Insn.Shift (shift_of_key key, W64.B8, mbad, Insn.ImmC 1))
        | Spec.Widen_shape _ ->
          pf "pf" []
            (if key = "movsx" then Insn.Movsx (W64.B8, W64.B1, Regs.r10, mbad)
             else Insn.Movzx (W64.B8, W64.B1, Regs.r10, mbad))
        | Spec.Reg_rm_shape _ ->
          pf "pf" []
            (if key = "imul2" then Insn.Imul2 (W64.B8, Regs.r10, mbad)
             else Insn.Cmovcc (Flags.NE, W64.B8, Regs.r10, mbad))
        | Spec.Mul_shape _ ->
          pf "pf" [ movq Regs.rax 4L; movq Regs.rdx 0L ]
            (Insn.Muldiv (muldiv_of_key key, W64.B8, mbad))
        | Spec.Push_shape ->
          pf_at "pf" (Int64.sub bad_addr 8L) [ movq Regs.rsp bad_addr ]
            (Insn.Push (Insn.Imm 1L))
        | Spec.Pop_shape ->
          pf_at "pf" bad_addr [ movq Regs.rsp bad_addr ]
            (Insn.Pop (Insn.Reg Regs.r10))
        | Spec.Bit_shape _ ->
          pf "pf" [] (Insn.Bittest (bittest_of_key key, W64.B8, mbad, Insn.Bimm 3))
        | Spec.String_shape _ ->
          let setup src =
            [ movq Regs.rsi (if src then bad_addr else Int64.add scratch 0x200L);
              movq Regs.rdi (if src then Int64.add scratch 0x300L else bad_addr);
              movq Regs.rcx 1L ]
          in
          (match key with
          | "movs" -> pf "pf_src" (setup true) (Insn.Movs (W64.B8, false))
          | "lods" -> pf "pf_src" (setup true) (Insn.Lods (W64.B8, false))
          | _ -> pf "pf_dst" (setup false) (Insn.Stos (W64.B8, false)))
        | Spec.Xchg_shape _ ->
          let target =
            match key with
            | "xchg" -> Insn.Xchg (W64.B8, mbad, Regs.r11)
            | "xadd" -> Insn.Xadd (W64.B8, mbad, Regs.r11)
            | _ -> Insn.Cmpxchg (W64.B8, mbad, Regs.r11)
          in
          pf "pf" [ movq Regs.r11 1L ] target
        | Spec.Branch_shape -> (
          match key with
          | "call" ->
            [ { e_name = "call.pf"; e_vector = 14;
                e_addr = Some (Int64.sub bad_addr 8L); e_mode = Spec.Kernel;
                e_body =
                  (fun a ->
                    Asm.ins a (movq Regs.r15 scratch);
                    Asm.ins a (movq Regs.rsp bad_addr);
                    Asm.call a "f";
                    Asm.ins a Insn.Hlt;
                    Asm.label a "f";
                    Asm.ins a Insn.Hlt) } ]
          | "ret" ->
            pf_at "pf" bad_addr [ movq Regs.rsp bad_addr ] Insn.Ret
          | _ -> [])
        | Spec.Setcc_shape -> pf "pf" [] (Insn.Setcc (Flags.E, mbad))
        | Spec.Fp_mem_shape -> (
          let m = Insn.mem_bd Regs.r15 bad_disp in
          match key with
          | "fld" -> pf "pf" [] (Insn.Fld m)
          | "fst" -> pf "pf" [] (Insn.Fst m)
          | "fadd" | "fsub" | "fmul" | "fdiv" ->
            pf "pf" [] (Insn.Fp (fpop_of_key key, m))
          | "sseload" -> pf "pf" [] (Insn.SseLoad (2, m))
          | _ -> pf "pf" [] (Insn.SseStore (m, 2)))
        | Spec.Flagio_shape ->
          if key = "pushf" then
            pf_at "pf" (Int64.sub bad_addr 8L) [ movq Regs.rsp bad_addr ]
              Insn.Pushf
          else pf_at "pf" bad_addr [ movq Regs.rsp bad_addr ] Insn.Popf
        | Spec.Plain | Spec.Cvt_shape | Spec.Fp_reg_shape -> []))
    row.Spec.faults

let handled_vectors = [ 0; 6; 13; 14 ]

(* Program image with an IDT and per-vector marker handlers: handler for
   vector v sets r14 <- 100+v and halts, so delivery is observable (and
   distinguishable from r14's initial zero when nothing is delivered). *)
let marker v = 100 + v

let build_exc_image (c : exc_case) =
  let a = Asm.create ~base () in
  c.e_body a;
  Asm.ins a Insn.Hlt;
  List.iter
    (fun v ->
      Asm.label a (Printf.sprintf "h%d" v);
      Asm.ins a (movq Regs.r14 (Int64.of_int (marker v)));
      Asm.ins a Insn.Hlt)
    handled_vectors;
  Asm.label a "hx";
  Asm.ins a (movq Regs.r14 999L);
  Asm.ins a Insn.Hlt;
  Asm.align a 8;
  Asm.label a "idt";
  for v = 0 to 31 do
    Asm.quad_label a
      (if List.mem v handled_vectors then Printf.sprintf "h%d" v else "hx")
  done;
  Asm.assemble a

(* Oracle prediction: run the program on the oracle alone and report the
   first predicted fault as (vector, pf address). *)
let predict table mode (image : Asm.image) =
  let o =
    Oracle.create ~table ~mode
      ~mapped:(Cross.valid_for_machine image)
      ~rip:image.Asm.img_base image
  in
  (Oracle.state o).Spec.regs.(Regs.rsp) <- Machine.stack_top;
  match Oracle.run ~max_insns:64 o with
  | Oracle.Faulted (Spec.Access_fault { addr; _ } as f) ->
    Some (Spec.fault_vector f, Some addr)
  | Oracle.Faulted f -> Some (Spec.fault_vector f, None)
  | Oracle.Undecodable _ -> Some (6, None)
  | Oracle.Stepped | Oracle.Halted | Oracle.Unsupported _ -> None

(* Real delivery: run the machine through seqcore with the IDT installed
   and report (marker vector, cr2). *)
let deliver mode (image : Asm.image) =
  let m =
    Machine.create
      ~mode:(match mode with Spec.User -> Context.User | Spec.Kernel -> Context.Kernel)
      image
  in
  let ctx = m.Machine.ctx in
  ctx.Context.idt_base <- Asm.symbol image "idt";
  ctx.Context.kernel_rsp <- Int64.sub Machine.stack_top 0x800L;
  let seq = Seqcore.create m.Machine.env ctx in
  (* Explicit step loop: [Seqcore.run] stops on [Executed 0], but a
     faulting macro commits nothing — delivery redirects into the handler
     with 0 committed, and we must keep stepping to observe it. *)
  (try
     let budget = ref 4096 in
     let continue_ = ref true in
     while !continue_ && !budget > 0 do
       decr budget;
       match Seqcore.step_block seq with
       | Seqcore.Executed _ | Seqcore.Interrupted ->
         if not ctx.Context.running then continue_ := false
       | Seqcore.Idle -> continue_ := false
     done
   with Assists.Triple_fault _ -> ());
  (Int64.to_int (Context.gpr ctx Regs.r14), ctx.Context.cr2)

type exc_report = {
  e_cases : int;
  e_failures : (string * string) list;  (* case name, what *)
}

(** Run every derived exception trigger: the oracle must predict the
    row's declared vector (and faulting address for #PF), and seqcore
    delivery through the IDT must land in the matching handler with the
    same CR2. *)
let run_exceptions ?(table = Spec.table) () : exc_report =
  let cases = List.concat_map exc_cases_for (table_rows table) in
  let failures = ref [] in
  List.iter
    (fun c ->
      let fail what = failures := (c.e_name, what) :: !failures in
      let image = build_exc_image c in
      (match predict table c.e_mode image with
      | Some (v, addr) ->
        if v <> c.e_vector then
          fail (Printf.sprintf "oracle predicted vector %d, want %d" v c.e_vector);
        (match (c.e_addr, addr) with
        | Some want, Some got when got <> want ->
          fail (Printf.sprintf "oracle predicted fault addr %Lx, want %Lx" got want)
        | Some want, None ->
          fail (Printf.sprintf "oracle predicted no fault addr, want %Lx" want)
        | _ -> ())
      | None -> fail "oracle predicted no fault");
      let got, cr2 = deliver c.e_mode image in
      if got <> marker c.e_vector then
        fail
          (Printf.sprintf "core delivered marker %d, want vector %d" got
             c.e_vector);
      match c.e_addr with
      | Some want when c.e_vector = 14 && cr2 <> want ->
        fail (Printf.sprintf "core cr2 = %Lx, want %Lx" cr2 want)
      | _ -> ())
    cases;
  { e_cases = List.length cases; e_failures = List.rev !failures }

(* ------------------------------------------------------------------ *)
(* Text reports                                                        *)
(* ------------------------------------------------------------------ *)

let report_to_string (r : report) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "conformance: %d rows, %d property programs\n"
       (List.length r.p_rows) r.p_cases);
  List.iter
    (fun rr ->
      if rr.rr_failures <> [] || rr.rr_vacuous <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "row %-10s %d cases, %d failures\n" rr.rr_key
             rr.rr_cases (List.length rr.rr_failures));
        List.iteri
          (fun i (tag, what) ->
            if i < 5 then
              Buffer.add_string b (Printf.sprintf "  FAIL %s: %s\n" tag what))
          rr.rr_failures;
        if List.length rr.rr_failures > 5 then
          Buffer.add_string b
            (Printf.sprintf "  ... %d more\n" (List.length rr.rr_failures - 5));
        List.iter
          (fun fl ->
            Buffer.add_string b
              (Printf.sprintf "  VACUOUS %s: declared Written but never changed\n"
                 fl))
          rr.rr_vacuous
      end)
    r.p_rows;
  Buffer.add_string b
    (Printf.sprintf "result: %d failures, %d vacuous flag claims\n" r.p_failures
       r.p_vacuous);
  Buffer.contents b

let exc_report_to_string (r : exc_report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "exceptions: %d trigger cases\n" r.e_cases);
  List.iter
    (fun (name, what) ->
      Buffer.add_string b (Printf.sprintf "  FAIL %s: %s\n" name what))
    r.e_failures;
  Buffer.add_string b
    (Printf.sprintf "result: %d failures\n" (List.length r.e_failures));
  Buffer.contents b

let coverage_to_string (c : Spec.coverage) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "spec coverage of fuzzgen opcodes: %d/%d (%.1f%%)\n"
       (List.length c.Spec.covered)
       (List.length c.Spec.covered + List.length c.Spec.missing)
       (Spec.coverage_pct c));
  if c.Spec.missing <> [] then
    Buffer.add_string b
      ("missing rows: " ^ String.concat " " c.Spec.missing ^ "\n");
  if c.Spec.extra <> [] then
    Buffer.add_string b
      ("rows beyond the generator set: " ^ String.concat " " c.Spec.extra ^ "\n");
  Buffer.contents b
