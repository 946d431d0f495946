(* Out-of-order core tests: the same guest programs as the seqcore tests
   must produce identical architectural results (the integrated-simulator
   guarantee), plus OOO-specific machinery: misprediction recovery,
   store-to-load forwarding, replay, precise faults, SMC flushes, and the
   seqcore-vs-ooo random-program equivalence property that implements the
   paper's co-simulation validation idea (§2.3). *)

open Ptl_util
open Ptl_isa
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Seqcore = Ptl_arch.Seqcore
module Ooo = Ptl_ooo.Ooo_core
module Config = Ptl_ooo.Config
module Stats = Ptl_stats.Statstree

let reg = Regs.gpr_of_name

let build ?(base = 0x40_0000L) items =
  let a = Asm.create ~base () in
  List.iter
    (fun it ->
      match it with `I insn -> Asm.ins a insn | `L l -> Asm.label a l | `J f -> f a)
    items;
  Asm.assemble a

let i x = `I x
let halt = [ i Insn.Hlt ]

(* Run a program to completion on the OOO core (hlt ends it). *)
let run_ooo ?(config = Config.tiny) ?(max_cycles = 2_000_000) items =
  let img = build items in
  let m = Machine.create img in
  let core = Ooo.create config m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles);
  (m, core)

let test_ooo_mov_add () =
  let m, core =
    run_ooo
      ([ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 40L));
         i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 2L)) ]
      @ halt)
  in
  Alcotest.(check int64) "rax" 42L (Machine.gpr m (reg "rax"));
  Alcotest.(check bool) "cycles counted" true (Stats.get m.Machine.env.Ptl_arch.Env.stats "ooo.cycles" > 0);
  Alcotest.(check int) "3 insns" 3 (Ooo.insns core)

let test_ooo_loop () =
  let items =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 100L));
      `L "loop";
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rcx"))));
      i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
      `J (fun a -> Asm.jcc a Flags.NE "loop") ]
    @ halt
  in
  let m, core = run_ooo items in
  Alcotest.(check int64) "sum" 5050L (Machine.gpr m (reg "rax"));
  (* the backward branch should be well predicted after warmup: over 100
     iterations, far fewer than 50 mispredicts *)
  let stats = m.Machine.env.Ptl_arch.Env.stats in
  ignore core;
  let mp = Stats.get stats "ooo.commit.mispredicts" in
  Alcotest.(check bool) "predictor learns" true (mp < 20)

let test_ooo_store_load_forwarding () =
  let hb = Machine.heap_base in
  let items =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1234L));
      i (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.RM (Insn.Reg (reg "rax"))));
      (* immediately dependent load: must forward from the store queue *)
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.RM (Insn.Mem (Insn.mem_bd (reg "rsi") 0L))));
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 1L)) ]
    @ halt
  in
  let m, _ = run_ooo items in
  Alcotest.(check int64) "forwarded" 1235L (Machine.gpr m (reg "rbx"))

let test_ooo_mispredict_recovery () =
  (* data-dependent branches on a pseudo-random pattern: forces real
     mispredictions; architectural result must still be exact *)
  let items =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 12345L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 200L));
      `L "loop";
      (* rbx = rbx * 1103515245 + 12345 (lcg), branch on bit 4 *)
      i (Insn.Movabs (reg "rdx", 1103515245L));
      i (Insn.Imul2 (W64.B8, reg "rbx", Insn.Reg (reg "rdx")));
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 12345L));
      i (Insn.Bittest (Insn.Bt, W64.B8, Insn.Reg (reg "rbx"), Insn.Bimm 4));
      `J (fun a -> Asm.jcc a Flags.AE "skip");
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1L));
      `L "skip";
      i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
      `J (fun a -> Asm.jcc a Flags.NE "loop") ]
    @ halt
  in
  (* compute the expected count with the functional core *)
  let img = build items in
  let mseq = Machine.create img in
  ignore (Machine.run_seq mseq);
  let expected = Machine.gpr mseq (reg "rax") in
  let m, _ = run_ooo items in
  Alcotest.(check int64) "same count" expected (Machine.gpr m (reg "rax"));
  let stats = m.Machine.env.Ptl_arch.Env.stats in
  Alcotest.(check bool) "some mispredicts happened" true
    (Stats.get stats "ooo.commit.mispredicts" > 0)

let test_ooo_rep_movs () =
  let hb = Machine.heap_base in
  let items =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Movabs (reg "rdi", Int64.add hb 512L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 100L));
      i (Insn.Movs (W64.B1, true)) ]
    @ halt
  in
  let img = build items in
  let m = Machine.create img in
  for k = 0 to 99 do
    Machine.write_mem m ~vaddr:(Int64.add hb (Int64.of_int k)) ~size:W64.B1
      ~value:(Int64.of_int (k land 0xFF))
  done;
  let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:1_000_000);
  for k = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "byte %d" k)
      (Int64.of_int (k land 0xFF))
      (Machine.read_mem m ~vaddr:(Int64.add hb (Int64.of_int (512 + k))) ~size:W64.B1)
  done

let test_ooo_page_fault_precise () =
  (* same faulting program as the seqcore test; the OOO core must deliver
     the same #PF precisely *)
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rax") "idt";
  Asm.ins a (Insn.MovToCr (6, reg "rax"));
  Asm.ins a (Insn.Movabs (reg "rbx", 0x7FFF_0000L));
  Asm.ins a (Insn.MovToCr (1, reg "rbx"));
  (* poison rdx; it must NOT survive into the handler path check *)
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 7L));
  Asm.ins a (Insn.Movabs (reg "rsi", 0x9999_0000L));
  Asm.ins a (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 1L));
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 111L));
  Asm.ins a Insn.Hlt;
  Asm.label a "pf_handler";
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 222L));
  Asm.ins a (Insn.MovFromCr (2, reg "rdi"));
  Asm.ins a Insn.Hlt;
  Asm.align a 8;
  Asm.label a "idt";
  for _ = 0 to 13 do
    Asm.quad a 0L
  done;
  Asm.quad_label a "pf_handler";
  let img = Asm.assemble a in
  let m = Machine.create img in
  let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:1_000_000);
  Alcotest.(check int64) "handler ran" 222L (Machine.gpr m (reg "rdx"));
  Alcotest.(check int64) "cr2" 0x9999_0000L (Machine.gpr m (reg "rdi"))

let test_ooo_smc_flush () =
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rsi") "target";
  Asm.call a "target";
  Asm.ins a (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 2L), Insn.Imm 2L));
  Asm.call a "target";
  Asm.ins a Insn.Hlt;
  Asm.label a "target";
  Asm.ins a (Insn.Movabs (reg "rax", 1L));
  Asm.ins a Insn.Ret;
  let img = Asm.assemble a in
  let m = Machine.create img in
  let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:1_000_000);
  Alcotest.(check int64) "patched code ran" 2L (Machine.gpr m (reg "rax"));
  let stats = m.Machine.env.Ptl_arch.Env.stats in
  Alcotest.(check bool) "smc flush counted" true
    (Stats.get stats "ooo.commit.smc_flushes" > 0)

let test_ooo_irq_delivery () =
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rax") "idt";
  Asm.ins a (Insn.MovToCr (6, reg "rax"));
  Asm.ins a (Insn.Movabs (reg "rbx", 0x7FFF_0000L));
  Asm.ins a (Insn.MovToCr (1, reg "rbx"));
  Asm.ins a Insn.Sti;
  Asm.label a "idle";
  Asm.ins a Insn.Hlt;
  Asm.jmp a "idle";
  Asm.label a "timer";
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 1L));
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rsp"), Insn.Imm 8L));
  Asm.ins a Insn.Iret;
  Asm.align a 8;
  Asm.label a "idt";
  for _ = 0 to 31 do
    Asm.quad a 0L
  done;
  Asm.quad_label a "timer";
  let img = Asm.assemble a in
  let m = Machine.create img in
  let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:100_000);
  Alcotest.(check bool) "halted" false m.Machine.ctx.Context.running;
  Context.raise_irq m.Machine.ctx 32;
  ignore (Ooo.run core ~max_cycles:100_000);
  Alcotest.(check int64) "handler ran" 1L (Machine.gpr m (reg "rdx"))

let test_ooo_k8_config_runs () =
  (* the full K8 configuration executes a nontrivial program correctly *)
  let items =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 1000L));
      `L "loop";
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rcx"))));
      i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
      `J (fun a -> Asm.jcc a Flags.NE "loop") ]
    @ halt
  in
  let m, core = run_ooo ~config:Config.k8_ptlsim items in
  Alcotest.(check int64) "sum" 500500L (Machine.gpr m (reg "rax"));
  (* superscalar: a 3-wide K8 should beat 1 IPC-equivalent on this loop? the
     dec->jcc chain limits it; just sanity-check CPI is reasonable *)
  let cpi = float_of_int (Stats.get m.Machine.env.Ptl_arch.Env.stats "ooo.cycles") /. float_of_int (Ooo.insns core) in
  Alcotest.(check bool) "cpi sane" true (cpi < 3.0 && cpi > 0.2)

(* --- the co-simulation property: random straight-line programs give the
   same architectural state on seqcore and the OOO core --- *)

let gen_program =
  let open QCheck.Gen in
  let gpr = int_bound 15 in
  let sizes = oneofl [ W64.B1; W64.B2; W64.B4; W64.B8 ] in
  let imm = oneofl [ 0L; 1L; -1L; 42L; 0x7FL; 0x1234L; -77L ] in
  (* memory ops confined to the heap through r15, kept valid *)
  let heap_mem =
    let* d = int_bound 63 in
    return (Insn.mem_bd 15 (Int64.of_int (d * 8)))
  in
  let alu_ops = [ Insn.Add; Insn.Or; Insn.Adc; Insn.Sbb; Insn.And; Insn.Sub; Insn.Xor; Insn.Cmp ] in
  let insn =
    frequency
      [ (6, let* op = oneofl alu_ops in
            let* s = sizes in
            let* d = gpr in
            let* src = oneof [ map (fun r -> Insn.RM (Insn.Reg r)) gpr; map (fun v -> Insn.Imm v) imm ] in
            return (Insn.Alu (op, s, Insn.Reg d, src)));
        (3, let* s = sizes in
            let* d = gpr in
            let* v = imm in
            return (Insn.Mov (s, Insn.Reg d, Insn.Imm v)));
        (2, let* op = oneofl alu_ops in
            let* s = sizes in
            let* m = heap_mem in
            let* v = imm in
            return (Insn.Alu (op, s, Insn.Mem m, Insn.Imm v)));
        (2, let* s = sizes in
            let* d = gpr in
            let* m = heap_mem in
            return (Insn.Mov (s, Insn.Reg d, Insn.RM (Insn.Mem m))));
        (2, let* s = sizes in
            let* m = heap_mem in
            let* r = gpr in
            return (Insn.Mov (s, Insn.Mem m, Insn.RM (Insn.Reg r))));
        (2, let* op = oneofl [ Insn.Shl; Insn.Shr; Insn.Sar; Insn.Rol; Insn.Ror ] in
            let* s = sizes in
            let* d = gpr in
            let* c = int_bound 66 in
            return (Insn.Shift (op, s, Insn.Reg d, Insn.ImmC c)));
        (1, let* c = int_bound 15 in
            let* d = gpr in
            return (Insn.Setcc (Flags.cond_of_code c, Insn.Reg d)));
        (1, let* c = int_bound 15 in
            let* s = oneofl [ W64.B2; W64.B4; W64.B8 ] in
            let* d = gpr in
            let* r = gpr in
            return (Insn.Cmovcc (Flags.cond_of_code c, s, d, Insn.Reg r)));
        (1, let* d = gpr in
            let* s = gpr in
            return (Insn.Imul2 (W64.B8, d, Insn.Reg s)));
        (1, let* m = heap_mem in
            let* r = gpr in
            return (Insn.Locked (Insn.Xadd (W64.B8, Insn.Mem m, r))));
        (1, let* op = oneofl [ Insn.Bts; Insn.Btr; Insn.Btc ] in
            let* m = heap_mem in
            let* b = int_bound 63 in
            return (Insn.Bittest (op, W64.B8, Insn.Mem m, Insn.Bimm b))) ]
  in
  list_size (int_range 5 60) insn

(* r15, rsp must stay valid: the generator never writes them. Filter. *)
let writes_pinned_reg insn =
  let pinned r = r = 15 || r = Regs.rsp in
  match insn with
  | Insn.Alu (op, _, Insn.Reg d, _) -> op <> Insn.Cmp && pinned d
  | Insn.Mov (_, Insn.Reg d, _)
  | Insn.Shift (_, _, Insn.Reg d, _)
  | Insn.Setcc (_, Insn.Reg d)
  | Insn.Cmovcc (_, _, d, _)
  | Insn.Imul2 (_, d, _) -> pinned d
  | Insn.Locked (Insn.Xadd (_, _, r)) -> pinned r
  | _ -> false

let run_both insns =
  let program =
    [ `I (Insn.Movabs (15, Machine.heap_base)) ]
    @ List.map (fun x -> `I x) insns
    @ [ `I Insn.Hlt ]
  in
  let img = build program in
  let m1 = Machine.create img in
  ignore (Machine.run_seq m1);
  let m2 = Machine.create img in
  let core = Ooo.create Config.tiny m2.Machine.env [| m2.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:3_000_000);
  (m1, m2)

let prop_cosim_equivalence =
  QCheck.Test.make ~name:"seqcore and ooo-core agree on random programs" ~count:60
    (QCheck.make gen_program)
    (fun insns ->
      let insns = List.filter (fun x -> not (writes_pinned_reg x)) insns in
      QCheck.assume (insns <> []);
      let m1, m2 = run_both insns in
      let diffs = Context.diff m1.Machine.ctx m2.Machine.ctx in
      if diffs <> [] then
        QCheck.Test.fail_reportf "state diverged:\n%s" (String.concat "\n" diffs)
      else true)

let suite =
  [
    Alcotest.test_case "ooo mov/add" `Quick test_ooo_mov_add;
    Alcotest.test_case "ooo loop + predictor" `Quick test_ooo_loop;
    Alcotest.test_case "ooo store-load forwarding" `Quick test_ooo_store_load_forwarding;
    Alcotest.test_case "ooo mispredict recovery" `Quick test_ooo_mispredict_recovery;
    Alcotest.test_case "ooo rep movs" `Quick test_ooo_rep_movs;
    Alcotest.test_case "ooo precise page fault" `Quick test_ooo_page_fault_precise;
    Alcotest.test_case "ooo SMC flush" `Quick test_ooo_smc_flush;
    Alcotest.test_case "ooo irq delivery" `Quick test_ooo_irq_delivery;
    Alcotest.test_case "ooo k8 config" `Quick test_ooo_k8_config_runs;
    Test_seed.to_alcotest prop_cosim_equivalence;
  ]
