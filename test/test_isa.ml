(* ISA tests: encoder/decoder round trips (unit + property), flag/condition
   semantics, assembler label resolution and branch relaxation. *)

open Ptl_util
open Ptl_isa

let insn_testable =
  Alcotest.testable
    (fun fmt i -> Format.pp_print_string fmt (Disasm.to_string i))
    (fun a b -> a = b)

let roundtrip ?(rip = 0x400000L) insn =
  let bytes = Encode.encode ~rip insn in
  let fetch addr =
    let i = Int64.to_int (Int64.sub addr rip) in
    Char.code bytes.[i]
  in
  let decoded, len = Decode.decode ~fetch ~rip in
  Alcotest.(check int) "length" (String.length bytes) len;
  Alcotest.check insn_testable "insn" (Encode.normalize insn) decoded

let sample_mem = Insn.mem ~base:Regs.rbp ~index:Regs.rsi ~scale:4 ~disp:(-72L) ()

let unit_roundtrips () =
  List.iter roundtrip
    [
      Insn.Nop;
      Insn.Alu (Insn.Add, W64.B8, Insn.Reg Regs.rax, Insn.RM (Insn.Reg Regs.rbx));
      Insn.Alu (Insn.Sub, W64.B4, Insn.Mem sample_mem, Insn.Imm 1234L);
      Insn.Alu (Insn.Cmp, W64.B1, Insn.Reg Regs.rcx, Insn.Imm (-1L));
      Insn.Alu (Insn.Xor, W64.B8, Insn.Reg Regs.r15, Insn.Imm 0x12345678L);
      Insn.Test (W64.B2, Insn.Reg Regs.rdx, Insn.Imm 0x7FFFL);
      Insn.Mov (W64.B8, Insn.Reg Regs.rsp, Insn.RM (Insn.Mem (Insn.mem_abs 0x1000L)));
      Insn.Mov (W64.B1, Insn.Mem (Insn.mem_bd Regs.rdi 3L), Insn.Imm 0xFFL);
      Insn.Movabs (Regs.r9, 0xDEADBEEFCAFEBABEL);
      Insn.Lea (Regs.rax, sample_mem);
      Insn.Movzx (W64.B8, W64.B1, Regs.rax, Insn.Mem sample_mem);
      Insn.Movsx (W64.B4, W64.B2, Regs.rbx, Insn.Reg Regs.rcx);
      Insn.Unary (Insn.Neg, W64.B8, Insn.Reg Regs.rdx);
      Insn.Unary (Insn.Inc, W64.B4, Insn.Mem (Insn.mem_bd Regs.rax 0L));
      Insn.Shift (Insn.Shl, W64.B8, Insn.Reg Regs.rax, Insn.ImmC 3);
      Insn.Shift (Insn.Sar, W64.B4, Insn.Mem sample_mem, Insn.Cl);
      Insn.Imul2 (W64.B8, Regs.rax, Insn.Reg Regs.rbx);
      Insn.Muldiv (Insn.Div, W64.B8, Insn.Reg Regs.rcx);
      Insn.Muldiv (Insn.Imul1, W64.B4, Insn.Mem sample_mem);
      Insn.Push (Insn.RM (Insn.Reg Regs.rbp));
      Insn.Push (Insn.Imm 42L);
      Insn.Push (Insn.RM (Insn.Mem sample_mem));
      Insn.Pop (Insn.Reg Regs.rbp);
      Insn.Pop (Insn.Mem (Insn.mem_bd Regs.rsp (-8L)));
      Insn.Call 0x400100L;
      Insn.CallInd (Insn.Reg Regs.rax);
      Insn.Ret;
      Insn.Jmp 0x3FFFF0L;
      Insn.JmpInd (Insn.Mem (Insn.mem ~base:Regs.rax ~index:Regs.rbx ~scale:8 ()));
      Insn.Jcc (Flags.NE, 0x400010L) (* short *);
      Insn.Jcc (Flags.LE, 0x500000L) (* long *);
      Insn.Setcc (Flags.A, Insn.Reg Regs.rdx);
      Insn.Cmovcc (Flags.G, W64.B8, Regs.rax, Insn.Mem sample_mem);
      Insn.Xchg (W64.B8, Insn.Mem sample_mem, Regs.rbx);
      Insn.Xadd (W64.B4, Insn.Mem sample_mem, Regs.rcx);
      Insn.Cmpxchg (W64.B8, Insn.Mem sample_mem, Regs.rdx);
      Insn.Bittest (Insn.Bts, W64.B8, Insn.Mem sample_mem, Insn.Breg Regs.rax);
      Insn.Bittest (Insn.Bt, W64.B4, Insn.Reg Regs.rbx, Insn.Bimm 17);
      Insn.Movs (W64.B8, true);
      Insn.Stos (W64.B1, true);
      Insn.Lods (W64.B4, false);
      Insn.Hlt;
      Insn.Syscall;
      Insn.Sysret;
      Insn.Int 0x80;
      Insn.Iret;
      Insn.Pushf;
      Insn.Popf;
      Insn.Cli;
      Insn.Sti;
      Insn.Pause;
      Insn.Ptlcall;
      Insn.Kcall;
      Insn.Rdtsc;
      Insn.Rdpmc;
      Insn.Cpuid;
      Insn.MovToCr (3, Regs.rax);
      Insn.MovFromCr (3, Regs.rbx);
      Insn.Invlpg sample_mem;
      Insn.Fld sample_mem;
      Insn.Fst sample_mem;
      Insn.Fp (Insn.Fmul, sample_mem);
      Insn.SseLoad (3, sample_mem);
      Insn.SseStore (sample_mem, 14);
      Insn.SseMov (0, 15);
      Insn.Sse (Insn.Divsd, 2, 3);
      Insn.Cvtsi2sd (1, Regs.rax);
      Insn.Cvtsd2si (Regs.rbx, 2);
      Insn.Comisd (4, 5);
      Insn.Locked (Insn.Alu (Insn.Add, W64.B8, Insn.Mem sample_mem, Insn.Imm 1L));
      Insn.Locked (Insn.Cmpxchg (W64.B8, Insn.Mem sample_mem, Regs.rbx));
    ]

let test_invalid_encodings () =
  (* LOCK on a register destination is rejected by the encoder. *)
  Alcotest.check_raises "lock reg" (Invalid_argument "Encode: LOCK on non-lockable")
    (fun () ->
      ignore
        (Encode.encode
           (Insn.Locked (Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.Imm 1L)))));
  (* mem-to-mem is rejected. *)
  (try
     ignore
       (Encode.encode
          (Insn.Mov (W64.B8, Insn.Mem sample_mem, Insn.RM (Insn.Mem sample_mem))));
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  (* undefined opcode decodes to Invalid_opcode *)
  (try
     ignore (Decode.decode ~fetch:(fun _ -> 0xEE) ~rip:0L);
     Alcotest.fail "expected Invalid_opcode"
   with Decode.Invalid_opcode _ -> ())

let test_variable_lengths () =
  let len i = String.length (Encode.encode ~rip:0x1000L i) in
  Alcotest.(check int) "nop" 1 (len Insn.Nop);
  Alcotest.(check int) "ptlcall is 0f 37" 2 (len Insn.Ptlcall);
  Alcotest.(check bool) "reg-reg short" true (len (Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.RM (Insn.Reg 1))) <= 4);
  Alcotest.(check bool) "mem-imm long" true
    (len (Insn.Alu (Insn.Add, W64.B8, Insn.Mem (Insn.mem_abs 0x123456L), Insn.Imm 0x89ABCDL)) >= 10)

let test_ptlcall_opcode_bytes () =
  (* The paper defines ptlcall as opcode 0x0f37; check the actual bytes. *)
  let b = Encode.encode Insn.Ptlcall in
  Alcotest.(check int) "first" 0x0F (Char.code b.[0]);
  Alcotest.(check int) "second" 0x37 (Char.code b.[1])

let test_cond_eval () =
  let f = Flags.empty |> Flags.set_zf true |> Flags.set_cf true in
  Alcotest.(check bool) "e" true (Flags.eval Flags.E f);
  Alcotest.(check bool) "b" true (Flags.eval Flags.B f);
  Alcotest.(check bool) "a" false (Flags.eval Flags.A f);
  Alcotest.(check bool) "be" true (Flags.eval Flags.BE f);
  let f = Flags.empty |> Flags.set_sf true |> Flags.set_of true in
  Alcotest.(check bool) "l (sf=of)" false (Flags.eval Flags.L f);
  Alcotest.(check bool) "ge" true (Flags.eval Flags.GE f);
  let f = Flags.empty |> Flags.set_sf true in
  Alcotest.(check bool) "l (sf<>of)" true (Flags.eval Flags.L f)

let prop_cond_negate =
  QCheck.Test.make ~name:"negate inverts every condition" ~count:500
    QCheck.(pair (int_bound 15) (int_bound 0xFFF))
    (fun (code, flags) ->
      let c = Flags.cond_of_code code in
      Flags.eval c flags = not (Flags.eval (Flags.negate c) flags))

(* Random instruction generator for the round-trip property. *)
let gen_insn =
  let open QCheck.Gen in
  let gpr = int_bound 15 in
  let size = oneofl [ W64.B1; W64.B2; W64.B4; W64.B8 ] in
  let mem_g =
    let* base = opt gpr in
    let* index = opt gpr in
    let* scale = oneofl [ 1; 2; 4; 8 ] in
    let* disp = oneofl [ 0L; 8L; -8L; 127L; -128L; 128L; 0x1234L; -123456L ] in
    return (Insn.mem ?base ?index ~scale ~disp ())
  in
  let rm_g = oneof [ map (fun r -> Insn.Reg r) gpr; map (fun m -> Insn.Mem m) mem_g ] in
  let imm_g = oneofl [ 0L; 1L; -1L; 127L; -128L; 128L; 0x7FFFL; 0x12345678L; -2000000L ] in
  let src_of_rm rm =
    (* avoid mem-to-mem *)
    match rm with
    | Insn.Mem _ -> oneof [ map (fun r -> Insn.RM (Insn.Reg r)) gpr; map (fun i -> Insn.Imm i) imm_g ]
    | Insn.Reg _ ->
      oneof
        [ map (fun r -> Insn.RM (Insn.Reg r)) gpr;
          map (fun m -> Insn.RM (Insn.Mem m)) mem_g;
          map (fun i -> Insn.Imm i) imm_g ]
  in
  let alu_g =
    let* op = oneofl [ Insn.Add; Insn.Or; Insn.Adc; Insn.Sbb; Insn.And; Insn.Sub; Insn.Xor; Insn.Cmp ] in
    let* s = size in
    let* dst = rm_g in
    let* src = src_of_rm dst in
    return (Insn.Alu (op, s, dst, src))
  in
  let mov_g =
    let* s = size in
    let* dst = rm_g in
    let* src = src_of_rm dst in
    return (Insn.Mov (s, dst, src))
  in
  let shift_g =
    let* op = oneofl [ Insn.Shl; Insn.Shr; Insn.Sar; Insn.Rol; Insn.Ror ] in
    let* s = size in
    let* dst = rm_g in
    let* c = oneof [ map (fun n -> Insn.ImmC n) (int_bound 255); return Insn.Cl ] in
    return (Insn.Shift (op, s, dst, c))
  in
  let locked_g =
    let* op = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ] in
    let* s = size in
    let* m = mem_g in
    let* i = imm_g in
    return (Insn.Locked (Insn.Alu (op, s, Insn.Mem m, Insn.Imm i)))
  in
  let simple_g =
    oneofl
      [ Insn.Nop; Insn.Ret; Insn.Hlt; Insn.Syscall; Insn.Pushf; Insn.Popf;
        Insn.Rdtsc; Insn.Cpuid; Insn.Ptlcall; Insn.Kcall; Insn.Pause ]
  in
  let jcc_g =
    let* code = int_bound 15 in
    let* target = oneofl [ 0x400002L; 0x400050L; 0x40FFFFL; 0x3F0000L ] in
    return (Insn.Jcc (Flags.cond_of_code code, target))
  in
  oneof [ alu_g; mov_g; shift_g; locked_g; simple_g; jcc_g ]

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = normalize i" ~count:5000
    (QCheck.make ~print:Disasm.to_string gen_insn)
    (fun insn ->
      let rip = 0x400000L in
      match Encode.encode ~rip insn with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | bytes ->
        let fetch addr = Char.code bytes.[Int64.to_int (Int64.sub addr rip)] in
        let decoded, len = Decode.decode ~fetch ~rip in
        len = String.length bytes && decoded = Encode.normalize insn)

let test_asm_basic () =
  let a = Asm.create ~base:0x1000L () in
  Asm.label a "start";
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg Regs.rax, Insn.Imm 0L));
  Asm.label a "loop";
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg Regs.rax, Insn.Imm 1L));
  Asm.ins a (Insn.Alu (Insn.Cmp, W64.B8, Insn.Reg Regs.rax, Insn.Imm 10L));
  Asm.jcc a Flags.NE "loop";
  Asm.ins a Insn.Ret;
  let img = Asm.assemble a in
  Alcotest.(check int64) "base symbol" 0x1000L (Asm.symbol img "start");
  Alcotest.(check bool) "loop after first insn" true (Asm.symbol img "loop" > 0x1000L);
  (* Decode the whole stream and confirm it ends with ret. *)
  let fetch addr = Char.code img.Asm.code.[Int64.to_int (Int64.sub addr 0x1000L)] in
  let rec walk rip acc =
    if Int64.to_int (Int64.sub rip 0x1000L) >= String.length img.Asm.code then List.rev acc
    else
      let insn, len = Decode.decode ~fetch ~rip in
      walk (Int64.add rip (Int64.of_int len)) (insn :: acc)
  in
  let insns = walk 0x1000L [] in
  Alcotest.(check int) "count" 5 (List.length insns);
  (match List.rev insns with
  | Insn.Ret :: _ -> ()
  | _ -> Alcotest.fail "last insn not ret");
  (* The backward jcc must resolve to the loop label. *)
  match List.nth insns 3 with
  | Insn.Jcc (Flags.NE, target) ->
    Alcotest.(check int64) "jcc target" (Asm.symbol img "loop") target
  | other -> Alcotest.fail ("expected jcc, got " ^ Disasm.to_string other)

let test_asm_forward_ref () =
  let a = Asm.create ~base:0L () in
  Asm.jmp a "end";
  Asm.ins a Insn.Hlt;
  Asm.label a "end";
  Asm.ins a Insn.Ret;
  let img = Asm.assemble a in
  let fetch addr = Char.code img.Asm.code.[Int64.to_int addr] in
  let insn, len = Decode.decode ~fetch ~rip:0L in
  match insn with
  | Insn.Jmp target ->
    Alcotest.(check int64) "forward target" (Asm.symbol img "end") target;
    (* hlt at len, ret at end *)
    let insn2, _ = Decode.decode ~fetch ~rip:(Int64.of_int len) in
    Alcotest.check insn_testable "hlt" Insn.Hlt insn2
  | other -> Alcotest.fail ("expected jmp, got " ^ Disasm.to_string other)

let test_asm_relaxation () =
  (* A short backward branch must use the 3-byte form; a far one must not. *)
  let near = Asm.create ~base:0L () in
  Asm.label near "top";
  Asm.ins near Insn.Nop;
  Asm.jcc near Flags.E "top";
  let img_near = Asm.assemble near in
  Alcotest.(check int) "short form" 4 (String.length img_near.Asm.code);
  let far = Asm.create ~base:0L () in
  Asm.label far "top";
  Asm.space far 1000;
  Asm.jcc far Flags.E "top";
  let img_far = Asm.assemble far in
  Alcotest.(check int) "long form" (1000 + 6) (String.length img_far.Asm.code)

let test_asm_align_and_data () =
  let a = Asm.create ~base:0x2000L () in
  Asm.ins a Insn.Nop;
  Asm.align a 16;
  Asm.label a "data";
  Asm.quad a 0x1122334455667788L;
  Asm.asciz a "hi";
  let img = Asm.assemble a in
  Alcotest.(check int64) "aligned" 0x2010L (Asm.symbol img "data");
  let off = Int64.to_int (Int64.sub (Asm.symbol img "data") 0x2000L) in
  Alcotest.(check int) "first data byte" 0x88 (Char.code img.Asm.code.[off]);
  Alcotest.(check int) "last data byte" 0x11 (Char.code img.Asm.code.[off + 7])

let test_asm_undefined_label () =
  let a = Asm.create ~base:0L () in
  Asm.jmp a "nowhere";
  try
    ignore (Asm.assemble a);
    Alcotest.fail "expected Undefined_label"
  with Asm.Undefined_label l -> Alcotest.(check string) "label name" "nowhere" l

let test_asm_quad_ref () =
  let a = Asm.create ~base:0x3000L () in
  Asm.label a "table";
  Asm.quad_label a "handler";
  Asm.label a "handler";
  Asm.ins a Insn.Ret;
  let img = Asm.assemble a in
  let off = Int64.to_int (Int64.sub (Asm.symbol img "table") 0x3000L) in
  let v = W64.of_bytes 8 (fun i -> Char.code img.Asm.code.[off + i]) in
  Alcotest.(check int64) "table entry" (Asm.symbol img "handler") v

let suite =
  [
    Alcotest.test_case "unit roundtrips" `Quick unit_roundtrips;
    Alcotest.test_case "invalid encodings" `Quick test_invalid_encodings;
    Alcotest.test_case "variable lengths" `Quick test_variable_lengths;
    Alcotest.test_case "ptlcall = 0f 37" `Quick test_ptlcall_opcode_bytes;
    Alcotest.test_case "condition evaluation" `Quick test_cond_eval;
    Test_seed.to_alcotest prop_cond_negate;
    Test_seed.to_alcotest prop_roundtrip;
    Alcotest.test_case "asm basic + decode walk" `Quick test_asm_basic;
    Alcotest.test_case "asm forward reference" `Quick test_asm_forward_ref;
    Alcotest.test_case "asm branch relaxation" `Quick test_asm_relaxation;
    Alcotest.test_case "asm align + data" `Quick test_asm_align_and_data;
    Alcotest.test_case "asm undefined label" `Quick test_asm_undefined_label;
    Alcotest.test_case "asm quad_ref" `Quick test_asm_quad_ref;
  ]
