(* End-to-end functional-core tests: whole guest programs assembled with
   Ptl_isa.Asm, loaded by Machine, executed by Seqcore. These validate the
   decoder + microcode + executor + paging stack together — the functional
   half of the paper's integrated simulator. *)

open Ptl_util
open Ptl_isa
module Arch = Ptl_arch
module Machine = Ptl_arch.Machine
module Seqcore = Ptl_arch.Seqcore
module Context = Ptl_arch.Context

let reg = Regs.gpr_of_name

let build insns =
  let a = Asm.create ~base:0x40_0000L () in
  List.iter
    (fun i ->
      match i with `I insn -> Asm.ins a insn | `L name -> Asm.label a name | `J f -> f a)
    insns;
  Asm.assemble a

let run ?(max_insns = 100_000) insns =
  let img = build insns in
  let m = Machine.create img in
  let seq = Machine.run_seq ~max_insns m in
  (m, seq)

let i x = `I x
let halt = [ i Insn.Hlt ]

let test_mov_add () =
  let m, _ =
    run
      ([ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 40L));
         i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 2L)) ]
      @ halt)
  in
  Alcotest.(check int64) "rax" 42L (Machine.gpr m (reg "rax"))

let test_loop_sum () =
  (* sum 1..100 with a conditional branch loop *)
  let insns =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 100L));
      `L "loop";
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rcx"))));
      i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
      `J (fun a -> Asm.jcc a Flags.NE "loop");
      i Insn.Hlt ]
  in
  let m, seq = run insns in
  Alcotest.(check int64) "sum" 5050L (Machine.gpr m (reg "rax"));
  Alcotest.(check bool) "many insns" true (Seqcore.insns seq > 300)

let test_memory_and_stack () =
  let insns =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0x1234L));
      i (Insn.Push (Insn.RM (Insn.Reg (reg "rax"))));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
      i (Insn.Pop (Insn.Reg (reg "rbx")));
      (* store/load through the heap *)
      i (Insn.Movabs (reg "rsi", Ptl_arch.Machine.heap_base));
      i (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 8L), Insn.RM (Insn.Reg (reg "rbx"))));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.RM (Insn.Mem (Insn.mem_bd (reg "rsi") 8L)))) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "pop" 0x1234L (Machine.gpr m (reg "rbx"));
  Alcotest.(check int64) "load" 0x1234L (Machine.gpr m (reg "rdx"))

let test_call_ret () =
  let insns =
    [ `J (fun a -> Asm.call a "double");
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1L));
      i Insn.Hlt;
      `L "double";
      i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rax"))));
      i Insn.Ret ]
  in
  let img = build insns in
  let m = Machine.create img in
  Context.set_gpr m.Machine.ctx (reg "rax") 21L;
  let _ = Machine.run_seq m in
  Alcotest.(check int64) "call/ret" 43L (Machine.gpr m (reg "rax"))

let test_rep_movs () =
  (* copy 64 bytes between heap buffers with rep movsb *)
  let hb = Ptl_arch.Machine.heap_base in
  let insns =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Movabs (reg "rdi", Int64.add hb 256L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 64L));
      i (Insn.Movs (W64.B1, true)) ]
    @ halt
  in
  let img = build insns in
  let m = Machine.create img in
  for k = 0 to 63 do
    Machine.write_mem m ~vaddr:(Int64.add hb (Int64.of_int k)) ~size:W64.B1
      ~value:(Int64.of_int (k * 3 land 0xFF))
  done;
  let _ = Machine.run_seq m in
  for k = 0 to 63 do
    let v = Machine.read_mem m ~vaddr:(Int64.add hb (Int64.of_int (256 + k))) ~size:W64.B1 in
    Alcotest.(check int64) (Printf.sprintf "byte %d" k) (Int64.of_int (k * 3 land 0xFF)) v
  done;
  (* registers after: rcx = 0, rsi/rdi advanced *)
  Alcotest.(check int64) "rcx" 0L (Machine.gpr m (reg "rcx"));
  Alcotest.(check int64) "rsi" (Int64.add hb 64L) (Machine.gpr m (reg "rsi"))

let test_rep_movs_zero_count () =
  let hb = Ptl_arch.Machine.heap_base in
  let insns =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Movabs (reg "rdi", Int64.add hb 64L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 0L));
      i (Insn.Movs (W64.B8, true));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 7L)) ]
    @ halt
  in
  let m, _ = run insns in
  (* with rcx=0 nothing is copied and execution continues *)
  Alcotest.(check int64) "after" 7L (Machine.gpr m (reg "rax"));
  Alcotest.(check int64) "rsi unchanged" hb (Machine.gpr m (reg "rsi"))

let test_locked_rmw () =
  let hb = Ptl_arch.Machine.heap_base in
  let insns =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 10L));
      i (Insn.Locked (Insn.Alu (Insn.Add, W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 5L)));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 100L));
      i (Insn.Locked (Insn.Xadd (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), reg "rbx"))) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "mem" 115L (Machine.read_mem m ~vaddr:hb ~size:W64.B8);
  Alcotest.(check int64) "xadd old" 15L (Machine.gpr m (reg "rbx"))

let test_cmpxchg () =
  let hb = Ptl_arch.Machine.heap_base in
  let insns =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 5L));
      (* success case: rax=5 matches *)
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 5L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 9L));
      i (Insn.Locked (Insn.Cmpxchg (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), reg "rbx")));
      i (Insn.Setcc (Flags.E, Insn.Reg (reg "rdx")));
      (* failure case: rax=42 does not match 9 *)
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 42L));
      i (Insn.Locked (Insn.Cmpxchg (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), reg "rbx")));
      i (Insn.Setcc (Flags.E, Insn.Reg (reg "rcx"))) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "stored" 9L (Machine.read_mem m ~vaddr:hb ~size:W64.B8);
  Alcotest.(check int64) "first succeeded" 1L
    (Int64.logand (Machine.gpr m (reg "rdx")) 1L);
  Alcotest.(check int64) "second failed" 0L
    (Int64.logand (Machine.gpr m (reg "rcx")) 1L);
  (* failed cmpxchg loads the current value into rax *)
  Alcotest.(check int64) "rax updated" 9L (Machine.gpr m (reg "rax"))

let test_mul_div () =
  let insns =
    [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1234567L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 89L));
      i (Insn.Muldiv (Insn.Mul, W64.B8, Insn.Reg (reg "rbx")));
      (* rdx:rax = 1234567*89 = 109876463; fits low *)
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rsi"), Insn.RM (Insn.Reg (reg "rax"))));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 1000L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 0L));
      i (Insn.Muldiv (Insn.Div, W64.B8, Insn.Reg (reg "rcx"))) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "product" 109876463L (Machine.gpr m (reg "rsi"));
  Alcotest.(check int64) "quotient" 109876L (Machine.gpr m (reg "rax"));
  Alcotest.(check int64) "remainder" 463L (Machine.gpr m (reg "rdx"))

let test_fp_program () =
  let hb = Ptl_arch.Machine.heap_base in
  let insns =
    [ i (Insn.Movabs (reg "rsi", hb));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 7L));
      i (Insn.Cvtsi2sd (0, reg "rax"));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 2L));
      i (Insn.Cvtsi2sd (1, reg "rax"));
      i (Insn.Sse (Insn.Divsd, 0, 1));
      (* xmm0 = 3.5; store, reload through x87, multiply by 2.0 via mem *)
      i (Insn.SseStore (Insn.mem_bd (reg "rsi") 0L, 0));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 2L));
      i (Insn.Cvtsi2sd (2, reg "rax"));
      i (Insn.SseStore (Insn.mem_bd (reg "rsi") 8L, 2));
      i (Insn.Fld (Insn.mem_bd (reg "rsi") 0L));
      i (Insn.Fp (Insn.Fmul, Insn.mem_bd (reg "rsi") 8L));
      i (Insn.Fst (Insn.mem_bd (reg "rsi") 16L));
      i (Insn.SseLoad (3, Insn.mem_bd (reg "rsi") 16L));
      i (Insn.Cvtsd2si (reg "rbx", 3)) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "7/2*2" 7L (Machine.gpr m (reg "rbx"))

let test_page_fault_unmapped () =
  (* a store to an unmapped address must fault; with no IDT installed the
     fault escalates to a triple fault *)
  let insns =
    [ i (Insn.Movabs (reg "rsi", 0x9999_0000L));
      i (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 1L)) ]
    @ halt
  in
  let img = build insns in
  let m = Machine.create img in
  match Machine.run_seq m with
  | exception Ptl_arch.Assists.Triple_fault _ -> ()
  | _ -> Alcotest.fail "expected triple fault"

let test_page_fault_handled () =
  (* install an IDT whose #PF handler skips to a recovery path *)
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rax") "idt";
  Asm.ins a (Insn.MovToCr (6, reg "rax"));
  (* set kernel stack for fault delivery *)
  Asm.ins a (Insn.Movabs (reg "rbx", 0x7FFF_0000L));
  Asm.ins a (Insn.MovToCr (1, reg "rbx"));
  Asm.ins a (Insn.Movabs (reg "rsi", 0x9999_0000L));
  Asm.ins a (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 0L), Insn.Imm 1L));
  (* not reached *)
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 111L));
  Asm.ins a Insn.Hlt;
  Asm.label a "pf_handler";
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdx"), Insn.Imm 222L));
  (* read cr2 to check the faulting address *)
  Asm.ins a (Insn.MovFromCr (2, reg "rdi"));
  Asm.ins a Insn.Hlt;
  Asm.align a 8;
  Asm.label a "idt";
  for _v = 0 to 13 do
    Asm.quad a 0L
  done;
  Asm.quad_label a "pf_handler" (* vector 14 *);
  let img = Asm.assemble a in
  let m = Machine.create img in
  let _ = Machine.run_seq m in
  Alcotest.(check int64) "handler ran" 222L (Machine.gpr m (reg "rdx"));
  Alcotest.(check int64) "cr2" 0x9999_0000L (Machine.gpr m (reg "rdi"))

let test_int_iret_roundtrip () =
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rax") "idt";
  Asm.ins a (Insn.MovToCr (6, reg "rax"));
  Asm.ins a (Insn.Movabs (reg "rbx", 0x7FFF_0000L));
  Asm.ins a (Insn.MovToCr (1, reg "rbx"));
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 1L));
  Asm.ins a (Insn.Int 32);
  (* resumed here after iret *)
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 100L));
  Asm.ins a Insn.Hlt;
  Asm.label a "handler";
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 10L));
  (* discard error code, then return *)
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rsp"), Insn.Imm 8L));
  Asm.ins a Insn.Iret;
  Asm.align a 8;
  Asm.label a "idt";
  for _v = 0 to 31 do
    Asm.quad a 0L
  done;
  Asm.quad_label a "handler" (* vector 32 *);
  let img = Asm.assemble a in
  let m = Machine.create img in
  let _ = Machine.run_seq m in
  Alcotest.(check int64) "both paths ran in order" 111L (Machine.gpr m (reg "rcx"))

let test_external_irq_wakes_hlt () =
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
  for _v = 0 to 31 do
    Asm.quad a 0L
  done;
  Asm.quad_label a "timer";
  let img = Asm.assemble a in
  let m = Machine.create img in
  let seq = Seqcore.create m.Machine.env m.Machine.ctx in
  (* run to the hlt *)
  let rec drive budget =
    if budget = 0 then ()
    else
      match Seqcore.step_block seq with
      | Seqcore.Idle -> ()
      | _ -> drive (budget - 1)
  in
  drive 1000;
  Alcotest.(check bool) "halted" false m.Machine.ctx.Context.running;
  (* inject the timer interrupt; the VCPU must wake, run the handler, and
     return to the idle loop *)
  Context.raise_irq m.Machine.ctx 32;
  drive 50;
  Alcotest.(check int64) "handler ran" 1L (Machine.gpr m (reg "rdx"));
  Alcotest.(check bool) "halted again" false m.Machine.ctx.Context.running

let test_smc_invalidation_functional () =
  (* program overwrites an instruction ahead of itself; the new bytes must
     execute (bb cache invalidated by the committed store) *)
  let a = Asm.create ~base:0x40_0000L () in
  (* patch target: mov rax, 1 (will be overwritten to mov rax, 2) *)
  Asm.lea_label a (reg "rsi") "target";
  (* run it once to get it into the bb cache *)
  Asm.call a "target_call";
  (* overwrite the 8-byte immediate in the movabs at target+2 *)
  Asm.ins a (Insn.Mov (W64.B8, Insn.Mem (Insn.mem_bd (reg "rsi") 2L), Insn.Imm 2L));
  Asm.call a "target_call";
  Asm.ins a Insn.Hlt;
  Asm.label a "target_call";
  Asm.label a "target";
  Asm.ins a (Insn.Movabs (reg "rax", 1L));
  Asm.ins a Insn.Ret;
  let img = Asm.assemble a in
  let m = Machine.create img in
  let _ = Machine.run_seq m in
  Alcotest.(check int64) "patched code executed" 2L (Machine.gpr m (reg "rax"))

let test_syscall_sysret () =
  let a = Asm.create ~base:0x40_0000L () in
  Asm.lea_label a (reg "rax") "entry";
  Asm.ins a (Insn.MovToCr (5, reg "rax"));
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rdi"), Insn.Imm 5L));
  Asm.ins a Insn.Syscall;
  (* back in user mode after sysret: hlt would #GP, so spin instead *)
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1000L));
  Asm.label a "spin";
  Asm.jmp a "spin";
  Asm.label a "entry";
  (* kernel: rax = rdi * 2, return *)
  Asm.ins a (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rdi"))));
  Asm.ins a (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rax"))));
  Asm.ins a Insn.Sysret;
  let img = Asm.assemble a in
  let m = Machine.create img in
  let _ = Machine.run_seq ~max_insns:500 m in
  Alcotest.(check int64) "syscall result" 1010L (Machine.gpr m (reg "rax"))

let test_rdtsc_monotone () =
  let insns =
    [ i Insn.Rdtsc;
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.RM (Insn.Reg (reg "rax")))) ]
    @ halt
  in
  let img = build insns in
  let m = Machine.create img in
  m.Machine.env.Ptl_arch.Env.cycle <- 12345;
  let _ = Machine.run_seq m in
  Alcotest.(check int64) "tsc value" 12345L (Machine.gpr m (reg "rbx"))

(* ---- the macro-op buffer ---- *)

let test_newest_write_wins () =
  (* pop rsp buffers rsp+8 and then the loaded value: the loaded value
     commits. cmpxchg rax, rbx writes rax (= rbx, the comparison being
     equal) and then reads it back for its second select: the read must
     see the buffered write, or rax would end as the old 5. *)
  let insns =
    [ i (Insn.Movabs (reg "rax", 0x6000_0040L));
      i (Insn.Push (Insn.RM (Insn.Reg (reg "rax"))));
      i (Insn.Pop (Insn.Reg (reg "rsp")));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 5L));
      i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 9L));
      i (Insn.Cmpxchg (W64.B8, Insn.Reg (reg "rax"), reg "rbx")) ]
    @ halt
  in
  let m, _ = run insns in
  Alcotest.(check int64) "pop rsp takes the loaded value" 0x6000_0040L
    (Machine.gpr m (reg "rsp"));
  Alcotest.(check int64) "cmpxchg rax, rbx" 9L (Machine.gpr m (reg "rax"))

(* A machine whose rsi points into the heap, with a functional core over
   it, for driving hand-built macro-ops through [Seqcore.exec_macro]. *)
let macro_machine () =
  let m = Machine.create (build halt) in
  let ctx = m.Machine.ctx in
  Context.set_gpr ctx (reg "rsi") Machine.heap_base;
  Context.set_gpr ctx (reg "rax") 0x1122_3344_5566_7788L;
  Machine.write_mem m ~vaddr:Machine.heap_base ~size:W64.B8 ~value:0x0A0B_0C0D_0E0F_0102L;
  (m, Seqcore.create m.Machine.env ctx)

let macro uops =
  let n = List.length uops in
  Array.of_list
    (List.mapi
       (fun k u ->
         { u with Ptl_uop.Uop.som = k = 0; eom = k = n - 1; rip = 0x40_0000L;
           next_rip = 0x40_0001L })
       uops)

let st ~base ~data size =
  { Ptl_uop.Uop.default with op = Ptl_uop.Uop.St; ra = base; rc = data; mem_size = size }

let ld ~base ~dst size =
  { Ptl_uop.Uop.default with op = Ptl_uop.Uop.Ld; ra = base; rd = dst; mem_size = size }

let test_newest_write_read () =
  (* two buffered writes of rcx, then a read: the read sees the newer *)
  let m, seq = macro_machine () in
  let mov rd v = { Ptl_uop.Uop.default with op = Ptl_uop.Uop.Mov; rd; imm = v } in
  let uops =
    macro
      [ mov (reg "rcx") 1L; mov (reg "rcx") 2L;
        { Ptl_uop.Uop.default with op = Ptl_uop.Uop.Mov; rd = reg "rdx"; rb = reg "rcx" } ]
  in
  ignore (Seqcore.exec_macro seq uops 0 : int);
  Alcotest.(check int64) "read the newest" 2L (Machine.gpr m (reg "rdx"));
  Alcotest.(check int64) "committed the newest" 2L (Machine.gpr m (reg "rcx"))

let test_store_forwarding () =
  let m, seq = macro_machine () in
  let uops =
    macro
      [ st ~base:(reg "rsi") ~data:(reg "rax") W64.B8;
        (* same address and size: forwarded from the buffer *)
        ld ~base:(reg "rsi") ~dst:(reg "rbx") W64.B8;
        (* a different size is not forwarded: it reads memory *)
        ld ~base:(reg "rsi") ~dst:(reg "rcx") W64.B4 ]
  in
  Alcotest.(check int) "next macro-op" 3 (Seqcore.exec_macro seq uops 0);
  Alcotest.(check int64) "forwarded" 0x1122_3344_5566_7788L (Machine.gpr m (reg "rbx"));
  Alcotest.(check int64) "from memory" 0x0E0F_0102L (Machine.gpr m (reg "rcx"));
  Alcotest.(check int64) "store committed" 0x1122_3344_5566_7788L
    (Machine.read_mem m ~vaddr:Machine.heap_base ~size:W64.B8);
  Alcotest.(check int64) "rip advanced" 0x40_0001L m.Machine.ctx.Context.rip

let test_fault_discards_buffers () =
  let m, seq = macro_machine () in
  let ctx = m.Machine.ctx in
  let rip = ctx.Context.rip and insns = ctx.Context.insns_committed in
  let uops =
    macro
      [ st ~base:(reg "rsi") ~data:(reg "rax") W64.B8;
        { Ptl_uop.Uop.default with op = Ptl_uop.Uop.Mov; rd = reg "rcx"; imm = 5L };
        (* nothing is mapped at 0x10 *)
        { (ld ~base:Ptl_uop.Uop.reg_none ~dst:(reg "rdx") W64.B8) with imm = 0x10L } ]
  in
  (match Seqcore.exec_macro seq uops 0 with
  | _ -> Alcotest.fail "the load should fault"
  | exception Ptl_arch.Fault.Guest_fault _ -> ());
  Alcotest.(check int64) "memory untouched" 0x0A0B_0C0D_0E0F_0102L
    (Machine.read_mem m ~vaddr:Machine.heap_base ~size:W64.B8);
  Alcotest.(check int64) "rcx untouched" 0L (Machine.gpr m (reg "rcx"));
  Alcotest.(check int64) "rip untouched" rip ctx.Context.rip;
  Alcotest.(check int) "nothing committed" insns ctx.Context.insns_committed;
  (* the next macro-op starts from an empty buffer *)
  let uops = macro [ ld ~base:(reg "rsi") ~dst:(reg "rbx") W64.B8 ] in
  ignore (Seqcore.exec_macro seq uops 0 : int);
  Alcotest.(check int64) "no stale forwarding" 0x0A0B_0C0D_0E0F_0102L
    (Machine.gpr m (reg "rbx"))

(* Every instruction form, in its register and memory variants, LOCKed
   where x86 allows it: each translation fits the macro-op buffer, and
   the longest (REP MOVS) is what the buffer is sized from. *)
let test_longest_microcode_fits () =
  let r = reg "rbx" and m = Insn.mem_bd (reg "rsi") 8L in
  let rms = [ Insn.Reg r; Insn.Mem m ] in
  let srcs = [ Insn.RM (Insn.Reg r); Insn.RM (Insn.Mem m); Insn.Imm 3L ] in
  let sizes = [ W64.B2; W64.B8 ] in
  let x0 = 0 and x1 = 1 in
  let forms =
    List.concat
      [ List.concat_map
          (fun op ->
            List.concat_map
              (fun size ->
                List.concat_map
                  (fun dst ->
                    List.filter_map
                      (fun src ->
                        match (dst, src) with
                        | Insn.Mem _, Insn.RM (Insn.Mem _) -> None
                        | _ -> Some (Insn.Alu (op, size, dst, src)))
                      srcs)
                  rms)
              sizes)
          Insn.[ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ];
        List.concat_map
          (fun dst ->
            [ Insn.Test (W64.B8, dst, Insn.Imm 1L);
              Insn.Mov (W64.B8, dst, Insn.Imm 1L);
              Insn.Mov (W64.B1, Insn.Reg r, Insn.RM dst);
              Insn.Movzx (W64.B8, W64.B1, r, dst);
              Insn.Movsx (W64.B8, W64.B2, r, dst);
              Insn.Imul2 (W64.B8, r, dst);
              Insn.Push (Insn.RM dst);
              Insn.Pop dst;
              Insn.CallInd dst;
              Insn.JmpInd dst;
              Insn.Setcc (Flags.E, dst);
              Insn.Cmovcc (Flags.E, W64.B8, r, dst);
              Insn.Xchg (W64.B4, dst, reg "rax");
              Insn.Xadd (W64.B4, dst, reg "rax");
              Insn.Cmpxchg (W64.B4, dst, reg "rcx") ]
            @ List.map (fun op -> Insn.Unary (op, W64.B8, dst)) Insn.[ Not; Neg; Inc; Dec ]
            @ List.concat_map
                (fun op -> [ Insn.Shift (op, W64.B8, dst, Insn.Cl); Insn.Shift (op, W64.B8, dst, Insn.ImmC 3) ])
                Insn.[ Shl; Shr; Sar; Rol; Ror ]
            @ List.map (fun op -> Insn.Muldiv (op, W64.B8, dst)) Insn.[ Mul; Imul1; Div; Idiv ]
            @ List.concat_map
                (fun op -> [ Insn.Bittest (op, W64.B8, dst, Insn.Breg (reg "rcx")); Insn.Bittest (op, W64.B8, dst, Insn.Bimm 5) ])
                Insn.[ Bt; Bts; Btr; Btc ])
          rms;
        List.concat_map
          (fun rep -> [ Insn.Movs (W64.B8, rep); Insn.Stos (W64.B1, rep); Insn.Lods (W64.B4, rep) ])
          [ false; true ];
        Insn.
          [ Nop; Movabs (r, 1L); Lea (r, m); Push (Imm 7L); Call 0x40_0100L; Ret; Jmp 0x40_0100L;
            Jcc (Flags.NE, 0x40_0100L); Hlt; Syscall; Sysret; Int 3; Iret; Pushf; Popf; Cli; Sti;
            Pause; Ptlcall; Kcall; Rdtsc; Rdpmc; Cpuid; MovToCr (3, r); MovFromCr (3, r);
            Invlpg m; Fld m; Fst m; Fp (Fadd, m); SseLoad (x0, m); SseStore (m, x1);
            SseMov (x0, x1); Sse (Mulsd, x0, x1); Cvtsi2sd (x0, r); Cvtsd2si (r, x1);
            Comisd (x0, x1) ] ]
  in
  let forms = forms @ List.filter_map (fun f -> if Insn.lockable f then Some (Insn.Locked f) else None) forms in
  let longest =
    List.fold_left
      (fun acc insn ->
        let n = Array.length (Ptl_uop.Microcode.translate insn ~rip:0x40_0000L ~next_rip:0x40_0004L) in
        if n > Seqcore.buffer_slots then
          Alcotest.failf "%s: %d uops overflow the %d-entry buffer" (Disasm.to_string insn) n
            Seqcore.buffer_slots;
        max acc n)
      0 forms
  in
  Alcotest.(check int) "rep movs is the longest" 7 longest;
  Alcotest.(check int) "buffer holds the documented bound" Ptl_uop.Microcode.max_uops
    Seqcore.buffer_slots

let suite =
  [
    Alcotest.test_case "mov/add" `Quick test_mov_add;
    Alcotest.test_case "loop sum 1..100" `Quick test_loop_sum;
    Alcotest.test_case "memory + stack" `Quick test_memory_and_stack;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "rep movsb" `Quick test_rep_movs;
    Alcotest.test_case "rep movs rcx=0" `Quick test_rep_movs_zero_count;
    Alcotest.test_case "locked rmw + xadd" `Quick test_locked_rmw;
    Alcotest.test_case "cmpxchg" `Quick test_cmpxchg;
    Alcotest.test_case "mul/div" `Quick test_mul_div;
    Alcotest.test_case "floating point x87+sse" `Quick test_fp_program;
    Alcotest.test_case "page fault unhandled" `Quick test_page_fault_unmapped;
    Alcotest.test_case "page fault handled" `Quick test_page_fault_handled;
    Alcotest.test_case "int/iret roundtrip" `Quick test_int_iret_roundtrip;
    Alcotest.test_case "irq wakes hlt" `Quick test_external_irq_wakes_hlt;
    Alcotest.test_case "self-modifying code" `Quick test_smc_invalidation_functional;
    Alcotest.test_case "syscall/sysret" `Quick test_syscall_sysret;
    Alcotest.test_case "rdtsc" `Quick test_rdtsc_monotone;
    Alcotest.test_case "buffer: newest write wins" `Quick test_newest_write_wins;
    Alcotest.test_case "buffer: a read sees the newest write" `Quick test_newest_write_read;
    Alcotest.test_case "buffer: same-macro store forwarding" `Quick test_store_forwarding;
    Alcotest.test_case "buffer: fault discards everything" `Quick test_fault_discards_buffers;
    Alcotest.test_case "buffer: longest microcode fits" `Quick test_longest_microcode_fits;
  ]
