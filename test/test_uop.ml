(* Tests of the uop layer: microcode translation goldens, SOM/EOM
   bracketing, pure uop execution semantics, and the basic block cache
   (including self-modifying-code invalidation). *)

open Ptl_util
open Ptl_isa
open Ptl_uop
module Stats = Ptl_stats.Statstree

let tr insn = Microcode.translate insn ~rip:0x1000L ~next_rip:0x1004L

let ops uops = Array.to_list (Array.map (fun u -> u.Uop.op) uops)

let test_translate_alu_reg () =
  let uops = tr (Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.RM (Insn.Reg 3))) in
  Alcotest.(check int) "one uop" 1 (Array.length uops);
  let u = uops.(0) in
  Alcotest.(check bool) "som" true u.Uop.som;
  Alcotest.(check bool) "eom" true u.Uop.eom;
  Alcotest.(check int) "dest" 0 u.Uop.rd;
  Alcotest.(check int) "flags set" Flags.cc_mask u.Uop.setflags

let test_translate_load_op_store () =
  let m = Insn.mem_bd Regs.rbp 16L in
  let uops = tr (Insn.Alu (Insn.Sub, W64.B4, Insn.Mem m, Insn.Imm 5L)) in
  (match ops uops with
  | [ Uop.Ld; Uop.Sub; Uop.St ] -> ()
  | _ -> Alcotest.fail "expected ld/sub/st");
  Alcotest.(check bool) "som on first" true uops.(0).Uop.som;
  Alcotest.(check bool) "eom on last" true uops.(2).Uop.eom;
  Alcotest.(check bool) "no mid markers" false (uops.(1).Uop.som || uops.(1).Uop.eom)

let test_translate_locked () =
  let m = Insn.mem_bd Regs.rbp 0L in
  let uops = tr (Insn.Locked (Insn.Alu (Insn.Add, W64.B8, Insn.Mem m, Insn.Imm 1L))) in
  match ops uops with
  | [ Uop.Ldl; Uop.Add; Uop.Strel ] -> ()
  | _ -> Alcotest.fail "expected ld.l/add/st.rel"

let test_translate_xchg_implicit_lock () =
  let m = Insn.mem_bd Regs.rbp 0L in
  let uops = tr (Insn.Xchg (W64.B8, Insn.Mem m, 3)) in
  match ops uops with
  | [ Uop.Ldl; Uop.Strel; Uop.Mov ] -> ()
  | _ -> Alcotest.fail "xchg mem must be locked"

let test_translate_call () =
  let uops = tr (Insn.Call 0x2000L) in
  (match ops uops with
  | [ Uop.Mov; Uop.Sub; Uop.St; Uop.Bru ] -> ()
  | _ -> Alcotest.fail "expected mov/sub/st/bru");
  Alcotest.(check int64) "return addr" 0x1004L uops.(0).Uop.imm;
  Alcotest.(check int64) "target" 0x2000L uops.(3).Uop.br_target

let test_translate_rep_movs () =
  let uops = tr (Insn.Movs (W64.B1, true)) in
  (match ops uops with
  | [ Uop.Brz; Uop.Ld; Uop.St; Uop.Add; Uop.Add; Uop.Sub; Uop.Bru ] -> ()
  | _ -> Alcotest.fail "unexpected rep movs expansion");
  (* exit branch leaves the instruction; back edge re-enters it *)
  Alcotest.(check int64) "exit to next" 0x1004L uops.(0).Uop.br_target;
  Alcotest.(check int64) "loop to self" 0x1000L uops.(6).Uop.br_target

let test_translate_div_by_8bit_unimplemented () =
  match Microcode.translate (Insn.Muldiv (Insn.Div, W64.B1, Insn.Reg 1)) ~rip:0L ~next_rip:2L with
  | exception Microcode.Unimplemented _ -> ()
  | _ -> Alcotest.fail "expected Unimplemented"

let test_translate_assists_serialize () =
  List.iter
    (fun insn ->
      let uops = tr insn in
      Alcotest.(check bool) "ends block" true
        (Array.exists Uop.ends_block uops))
    [ Insn.Syscall; Insn.Hlt; Insn.Ptlcall; Insn.Iret; Insn.Int 3 ]

(* --- pure exec semantics --- *)

let exec ?(ra = 0L) ?(rb = 0L) ?(rc = 0L) ?(flags = 0) u =
  Exec.execute u ~ra ~rb ~rc ~flags

let mku ?(size = W64.B8) ?(setflags = 0) ?(imm = 0L) ?(ra = Uop.reg_none)
    ?(rb = Uop.reg_none) ?(rc = Uop.reg_none) op =
  { Uop.default with Uop.op; size; setflags; imm; ra; rb; rc }

let test_exec_add_flags () =
  let u = mku ~size:W64.B4 ~setflags:Flags.cc_mask ~ra:0 ~rb:1 Uop.Add in
  let out = exec ~ra:0xFFFFFFFFL ~rb:1L u in
  Alcotest.(check int64) "wrap" 0L out.Exec.value;
  Alcotest.(check bool) "cf" true (Flags.cf out.Exec.flags);
  Alcotest.(check bool) "zf" true (Flags.zf out.Exec.flags);
  Alcotest.(check bool) "of clear" false (Flags.off out.Exec.flags)

let test_exec_partial_register_merge () =
  (* mov.b1 rax <- 0xFF must preserve the upper 56 bits *)
  let u = mku ~size:W64.B1 ~ra:0 ~imm:0xFFL Uop.Mov in
  let out = exec ~ra:0x1122334455667700L u in
  Alcotest.(check int64) "merged" 0x11223344556677FFL out.Exec.value;
  (* mov.b4 zero-extends *)
  let u = mku ~size:W64.B4 ~ra:0 ~imm:(-1L) Uop.Mov in
  let out = exec ~ra:0x1122334455667700L u in
  Alcotest.(check int64) "zext" 0xFFFFFFFFL out.Exec.value

let test_exec_inc_preserves_cf () =
  let u =
    mku ~size:W64.B8 ~setflags:(Flags.cc_mask land lnot Flags.cf_mask) ~ra:0 ~imm:1L
      Uop.Add
  in
  let out = exec ~ra:5L ~flags:Flags.cf_mask u in
  Alcotest.(check bool) "cf preserved" true (Flags.cf out.Exec.flags);
  Alcotest.(check int64) "value" 6L out.Exec.value

let test_exec_div128 () =
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Divqu in
  (* (1 << 64 | 0) / 2 would overflow; use hi=0 *)
  let out = exec ~ra:0L ~rb:100L ~rc:7L u in
  Alcotest.(check int64) "quot" 14L out.Exec.value;
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Remqu in
  let out = exec ~ra:0L ~rb:100L ~rc:7L u in
  Alcotest.(check int64) "rem" 2L out.Exec.value;
  (* true 128-bit: (5 << 64 + 10) / 16 = 5 << 60 + 0 ... check via identity *)
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Divqu in
  let out = exec ~ra:5L ~rb:10L ~rc:16L u in
  Alcotest.(check int64) "128-bit quot" 0x5000000000000000L out.Exec.value

let test_exec_div_faults () =
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Divqu in
  (try
     ignore (exec ~ra:0L ~rb:1L ~rc:0L u);
     Alcotest.fail "expected divide error"
   with Exec.Divide_error -> ());
  try
    ignore (exec ~ra:2L ~rb:0L ~rc:1L u);
    Alcotest.fail "expected overflow divide error"
  with Exec.Divide_error -> ()

let test_exec_signed_div () =
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Divqs in
  let out = exec ~ra:(-1L) ~rb:(-100L) ~rc:7L u in
  Alcotest.(check int64) "-100/7" (-14L) out.Exec.value;
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 ~rc:2 Uop.Remqs in
  let out = exec ~ra:(-1L) ~rb:(-100L) ~rc:7L u in
  Alcotest.(check int64) "-100 rem 7" (-2L) out.Exec.value

let test_exec_sel_setc () =
  let u = mku ~size:W64.B8 ~ra:0 ~rb:1 (Uop.Sel Flags.E) in
  let out = exec ~ra:111L ~rb:222L ~flags:Flags.zf_mask u in
  Alcotest.(check int64) "sel true" 111L out.Exec.value;
  let out = exec ~ra:111L ~rb:222L ~flags:0 u in
  Alcotest.(check int64) "sel false" 222L out.Exec.value;
  let u = mku ~size:W64.B1 ~ra:0 (Uop.Setc Flags.NE) in
  let out = exec ~ra:0xAA00L ~flags:0 u in
  Alcotest.(check int64) "setne merges" 0xAA01L out.Exec.value

let test_exec_branches () =
  let u = { (mku (Uop.Brc Flags.E)) with Uop.br_target = 0x100L; next_rip = 0x8L } in
  let out = exec ~flags:Flags.zf_mask u in
  Alcotest.(check bool) "taken" true out.Exec.taken;
  Alcotest.(check int64) "target" 0x100L out.Exec.target;
  let out = exec ~flags:0 u in
  Alcotest.(check bool) "not taken" false out.Exec.taken;
  Alcotest.(check int64) "fallthrough" 0x8L out.Exec.target;
  let u = { (mku ~ra:0 Uop.Brz) with Uop.br_target = 0x200L; next_rip = 0x8L } in
  Alcotest.(check bool) "brz on zero" true (exec ~ra:0L u).Exec.taken;
  Alcotest.(check bool) "brz on nonzero" false (exec ~ra:1L u).Exec.taken;
  let u = mku ~ra:0 Uop.Jmpr in
  Alcotest.(check int64) "jmpr" 0xABCL (exec ~ra:0xABCL u).Exec.target

let test_exec_address () =
  let u = { (mku ~ra:0 ~rb:1 Uop.Ld) with Uop.scale = 4; imm = 0x10L } in
  let out = exec ~ra:0x1000L ~rb:3L u in
  Alcotest.(check int64) "ea" 0x101CL out.Exec.value

let test_exec_fp () =
  let b = Int64.bits_of_float in
  let u = mku ~ra:0 ~rb:1 Uop.Fadd in
  let out = exec ~ra:(b 1.5) ~rb:(b 2.25) u in
  Alcotest.(check (float 1e-12)) "fadd" 3.75 (Int64.float_of_bits out.Exec.value);
  let u = mku ~ra:0 Uop.I2f in
  let out = exec ~ra:42L u in
  Alcotest.(check (float 1e-12)) "i2f" 42.0 (Int64.float_of_bits out.Exec.value);
  let u = mku ~ra:0 Uop.F2i in
  let out = exec ~ra:(b (-3.7)) u in
  Alcotest.(check int64) "f2i truncates" (-3L) out.Exec.value;
  let u = mku ~ra:0 ~rb:1 ~setflags:Flags.cc_mask Uop.Fcmp in
  let out = exec ~ra:(b 1.0) ~rb:(b 2.0) u in
  Alcotest.(check bool) "1<2 sets cf" true (Flags.cf out.Exec.flags);
  let out = exec ~ra:(b 2.0) ~rb:(b 2.0) u in
  Alcotest.(check bool) "eq sets zf" true (Flags.zf out.Exec.flags)

(* Property: microcode of random ALU instructions has SOM on the first uop,
   EOM on the last, and no load without a matching fault-safe shape. *)
let prop_translation_brackets =
  QCheck.Test.make ~name:"translations are SOM/EOM bracketed" ~count:1000
    (QCheck.make Test_isa.gen_insn)
    (fun insn ->
      match Microcode.translate insn ~rip:0x1000L ~next_rip:0x1005L with
      | exception Microcode.Unimplemented _ -> QCheck.assume_fail ()
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | uops ->
        Array.length uops > 0
        && uops.(0).Uop.som
        && uops.(Array.length uops - 1).Uop.eom
        && Array.for_all
             (fun u -> u.Uop.rip = 0x1000L && u.Uop.next_rip = 0x1005L)
             uops)

(* --- basic block cache --- *)

let make_code_mem insns =
  (* assemble at 0x1000 and expose fetch/mfn functions over a flat array *)
  let a = Asm.create ~base:0x1000L () in
  List.iter (Asm.ins a) insns;
  let img = Asm.assemble a in
  let fetch va =
    let off = Int64.to_int (Int64.sub va 0x1000L) in
    if off < 0 || off >= String.length img.Asm.code then
      raise (Decode.Invalid_opcode va)
    else Char.code img.Asm.code.[off]
  in
  let mfn_of va = Int64.to_int (Int64.shift_right_logical va 12) in
  (img, fetch, mfn_of)

let test_bbcache_build_and_hit () =
  let stats = Stats.create () in
  let cache = Bbcache.create stats in
  let _, fetch, mfn_of =
    make_code_mem
      [ Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.Imm 1L);
        Insn.Alu (Insn.Add, W64.B8, Insn.Reg 1, Insn.Imm 2L);
        Insn.Ret ]
  in
  let bb = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  Alcotest.(check int) "three insns" 3 bb.Bbcache.insn_count;
  Alcotest.(check bool) "terminated by ret" true bb.Bbcache.terminated;
  Alcotest.(check int) "miss counted" 1 (Stats.get stats "bbcache.misses");
  let _ = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  Alcotest.(check int) "hit counted" 1 (Stats.get stats "bbcache.hits")

let test_bbcache_kernel_user_split () =
  let stats = Stats.create () in
  let cache = Bbcache.create stats in
  let _, fetch, mfn_of = make_code_mem [ Insn.Ret ] in
  let _ = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  let _ = Bbcache.lookup cache ~rip:0x1000L ~kernel:true ~fetch ~mfn_of in
  (* both lookups missed: the mode is part of the key *)
  Alcotest.(check int) "two blocks (mode in key)" 2
    (Stats.get stats "bbcache.misses")

let test_bbcache_insn_limit () =
  let stats = Stats.create () in
  let cache = Bbcache.create ~max_insns:4 stats in
  let _, fetch, mfn_of =
    make_code_mem (List.init 10 (fun _ -> Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.Imm 1L)))
  in
  let bb = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  Alcotest.(check int) "limit respected" 4 bb.Bbcache.insn_count;
  Alcotest.(check bool) "not terminated" false bb.Bbcache.terminated;
  (* fallthrough continues exactly after the 4th instruction *)
  let bb2 =
    Bbcache.lookup cache ~rip:bb.Bbcache.fallthrough_rip ~kernel:false ~fetch ~mfn_of
  in
  Alcotest.(check int) "second block capped too" 4 bb2.Bbcache.insn_count;
  let bb3 =
    Bbcache.lookup cache ~rip:bb2.Bbcache.fallthrough_rip ~kernel:false ~fetch ~mfn_of
  in
  Alcotest.(check int) "remainder" 2 bb3.Bbcache.insn_count

let test_bbcache_smc_invalidation () =
  let stats = Stats.create () in
  let cache = Bbcache.create stats in
  let _, fetch, mfn_of = make_code_mem [ Insn.Nop; Insn.Ret ] in
  let bb = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  let mfn = List.hd bb.Bbcache.mfns in
  Alcotest.(check bool) "store triggers flush" true (Bbcache.store_committed cache mfn);
  Alcotest.(check bool) "second store is clean" false (Bbcache.store_committed cache mfn);
  Alcotest.(check int) "flush counted" 1 (Stats.get stats "bbcache.smc_flushes");
  let _ = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  Alcotest.(check int) "block gone: relookup misses" 2
    (Stats.get stats "bbcache.misses")

let test_bbcache_mid_block_fault_cut () =
  (* code runs off the end of mapped bytes: the block must stop cleanly
     after the last decodable instruction *)
  let stats = Stats.create () in
  let cache = Bbcache.create stats in
  let _, fetch, mfn_of = make_code_mem [ Insn.Nop; Insn.Nop ] in
  let bb = Bbcache.lookup cache ~rip:0x1000L ~kernel:false ~fetch ~mfn_of in
  Alcotest.(check int) "both nops decoded" 2 bb.Bbcache.insn_count;
  Alcotest.(check bool) "cut, not terminated" false bb.Bbcache.terminated

let suite =
  [
    Alcotest.test_case "translate alu reg" `Quick test_translate_alu_reg;
    Alcotest.test_case "translate load-op-store" `Quick test_translate_load_op_store;
    Alcotest.test_case "translate locked rmw" `Quick test_translate_locked;
    Alcotest.test_case "translate xchg implicit lock" `Quick test_translate_xchg_implicit_lock;
    Alcotest.test_case "translate call" `Quick test_translate_call;
    Alcotest.test_case "translate rep movs loop" `Quick test_translate_rep_movs;
    Alcotest.test_case "translate 8-bit div unimplemented" `Quick test_translate_div_by_8bit_unimplemented;
    Alcotest.test_case "assists end blocks" `Quick test_translate_assists_serialize;
    Alcotest.test_case "exec add flags" `Quick test_exec_add_flags;
    Alcotest.test_case "exec partial register merge" `Quick test_exec_partial_register_merge;
    Alcotest.test_case "exec inc preserves cf" `Quick test_exec_inc_preserves_cf;
    Alcotest.test_case "exec 128/64 divide" `Quick test_exec_div128;
    Alcotest.test_case "exec divide faults" `Quick test_exec_div_faults;
    Alcotest.test_case "exec signed divide" `Quick test_exec_signed_div;
    Alcotest.test_case "exec sel/setc" `Quick test_exec_sel_setc;
    Alcotest.test_case "exec branches" `Quick test_exec_branches;
    Alcotest.test_case "exec address generation" `Quick test_exec_address;
    Alcotest.test_case "exec floating point" `Quick test_exec_fp;
    Test_seed.to_alcotest prop_translation_brackets;
    Alcotest.test_case "bbcache build + hit" `Quick test_bbcache_build_and_hit;
    Alcotest.test_case "bbcache kernel/user key" `Quick test_bbcache_kernel_user_split;
    Alcotest.test_case "bbcache insn limit" `Quick test_bbcache_insn_limit;
    Alcotest.test_case "bbcache SMC invalidation" `Quick test_bbcache_smc_invalidation;
    Alcotest.test_case "bbcache mid-block fault cut" `Quick test_bbcache_mid_block_fault_cut;
  ]
