(* Branch predictor unit tests: training behaviour of each direction
   predictor, BTB replacement, and RAS speculation/repair — plus
   disassembler smoke checks (kept here to avoid a one-test module). *)

module P = Ptl_bpred.Predictor
module Stats = Ptl_stats.Statstree

let make direction =
  P.create (Stats.create ())
    { P.direction; btb_entries = 64; btb_ways = 4; ras_entries = 8 }

let train p ~rip ~taken n =
  for _ = 1 to n do
    let pred = P.predict_cond p ~rip in
    P.update_cond p ~rip ~taken ~mispredicted:(pred <> taken)
  done

let test_bimodal_learns () =
  let p = make (P.Bimodal 10) in
  train p ~rip:0x400100L ~taken:true 8;
  Alcotest.(check bool) "learned taken" true (P.predict_cond p ~rip:0x400100L);
  train p ~rip:0x400100L ~taken:false 8;
  Alcotest.(check bool) "relearned not-taken" false (P.predict_cond p ~rip:0x400100L)

let test_bimodal_hysteresis () =
  (* 2-bit counters: one contrary outcome must not flip a saturated
     prediction *)
  let p = make (P.Bimodal 10) in
  train p ~rip:0x400100L ~taken:true 8;
  train p ~rip:0x400100L ~taken:false 1;
  Alcotest.(check bool) "still taken after one miss" true
    (P.predict_cond p ~rip:0x400100L)

let test_gshare_uses_history () =
  (* alternating pattern TNTN...: a gshare with history learns it; a
     bimodal stays ~50% *)
  let run direction =
    let p = make direction in
    let rip = 0x400200L in
    let wrong = ref 0 in
    for i = 0 to 399 do
      let taken = i mod 2 = 0 in
      let pred = P.predict_cond p ~rip in
      if pred <> taken then incr wrong;
      P.update_cond p ~rip ~taken ~mispredicted:(pred <> taken)
    done;
    !wrong
  in
  let gshare_wrong = run (P.Gshare { table_bits = 12; history_bits = 8 }) in
  let bimodal_wrong = run (P.Bimodal 12) in
  Alcotest.(check bool)
    (Printf.sprintf "gshare (%d wrong) beats bimodal (%d wrong) on TNTN" gshare_wrong
       bimodal_wrong)
    true
    (gshare_wrong < 30 && bimodal_wrong > 100)

let test_hybrid_chooser () =
  (* the hybrid should approach the better component on the alternating
     pattern (i.e. behave gshare-like) *)
  let p = make (P.Hybrid { table_bits = 12; history_bits = 8; chooser_bits = 10 }) in
  let rip = 0x400300L in
  let late_wrong = ref 0 in
  for i = 0 to 799 do
    let taken = i mod 2 = 0 in
    let pred = P.predict_cond p ~rip in
    if i > 400 && pred <> taken then incr late_wrong;
    P.update_cond p ~rip ~taken ~mispredicted:(pred <> taken)
  done;
  Alcotest.(check bool) "hybrid converges" true (!late_wrong < 40)

let test_btb () =
  let p = make (P.Bimodal 10) in
  Alcotest.(check (option int64)) "cold miss" None (P.predict_target p ~rip:0x400400L);
  P.update_target p ~rip:0x400400L ~target:0x400ABCL;
  Alcotest.(check (option int64)) "hit" (Some 0x400ABCL) (P.predict_target p ~rip:0x400400L);
  (* retargeting (indirect branch changes destination) *)
  P.update_target p ~rip:0x400400L ~target:0x400DEFL;
  Alcotest.(check (option int64)) "retargeted" (Some 0x400DEFL)
    (P.predict_target p ~rip:0x400400L)

let test_btb_capacity () =
  let p = make (P.Bimodal 10) in
  (* 64 entries, 4-way: flood with many targets; recent ones must survive *)
  for i = 0 to 199 do
    P.update_target p ~rip:(Int64.of_int (0x400000 + (i * 8))) ~target:(Int64.of_int i)
  done;
  let hits = ref 0 in
  for i = 150 to 199 do
    match P.predict_target p ~rip:(Int64.of_int (0x400000 + (i * 8))) with
    | Some t when t = Int64.of_int i -> incr hits
    | _ -> ()
  done;
  Alcotest.(check bool) "recent entries retained" true (!hits > 25)

let test_ras_push_pop () =
  let p = make (P.Bimodal 10) in
  P.ras_push p 0x1000L;
  P.ras_push p 0x2000L;
  Alcotest.(check (option int64)) "lifo 1" (Some 0x2000L) (P.ras_pop p);
  Alcotest.(check (option int64)) "lifo 2" (Some 0x1000L) (P.ras_pop p);
  Alcotest.(check (option int64)) "empty" None (P.ras_pop p)

let test_ras_checkpoint_repair () =
  let p = make (P.Bimodal 10) in
  P.ras_push p 0x1000L;
  (* speculative call that will be annulled *)
  let ck = P.ras_checkpoint p in
  P.ras_push p 0xBAD0L;
  P.ras_restore p ck;
  Alcotest.(check (option int64)) "repaired" (Some 0x1000L) (P.ras_pop p);
  (* speculative pop that will be annulled *)
  P.ras_push p 0x3000L;
  let ck = P.ras_checkpoint p in
  ignore (P.ras_pop p);
  P.ras_restore p ck;
  Alcotest.(check (option int64)) "pop undone" (Some 0x3000L) (P.ras_pop p)

let test_mispredict_counter () =
  let stats = Stats.create () in
  let p =
    P.create stats
      { P.direction = P.Bimodal 10; btb_entries = 64; btb_ways = 4; ras_entries = 8 }
  in
  P.update_cond p ~rip:0x400500L ~taken:true ~mispredicted:true;
  P.update_cond p ~rip:0x400500L ~taken:true ~mispredicted:false;
  Alcotest.(check int) "counted once" 1 (Stats.get stats "bpred.mispredicts")

(* --- disassembler smoke checks --- *)

open Ptl_isa
open Ptl_util

let test_disasm () =
  let check insn expect =
    Alcotest.(check string) expect expect (Disasm.to_string insn)
  in
  check (Insn.Alu (Insn.Add, W64.B8, Insn.Reg Regs.rax, Insn.RM (Insn.Reg Regs.rbx)))
    "addq rax, rbx";
  check (Insn.Mov (W64.B4, Insn.Reg Regs.rcx, Insn.Imm 5L)) "movd rcx, 0x5";
  check
    (Insn.Locked (Insn.Alu (Insn.Add, W64.B8, Insn.Mem (Insn.mem_bd Regs.rbp 8L), Insn.Imm 1L)))
    "lock addq [rbp+0x8], 0x1";
  check Insn.Ptlcall "ptlcall";
  check (Insn.Jcc (Flags.NE, 0x400010L)) "jne 0x400010";
  check (Insn.Movs (W64.B1, true)) "rep movsb"

let suite =
  [
    Alcotest.test_case "bimodal learns" `Quick test_bimodal_learns;
    Alcotest.test_case "bimodal hysteresis" `Quick test_bimodal_hysteresis;
    Alcotest.test_case "gshare uses history" `Quick test_gshare_uses_history;
    Alcotest.test_case "hybrid chooser" `Quick test_hybrid_chooser;
    Alcotest.test_case "btb hit/retarget" `Quick test_btb;
    Alcotest.test_case "btb capacity" `Quick test_btb_capacity;
    Alcotest.test_case "ras push/pop" `Quick test_ras_push_pop;
    Alcotest.test_case "ras checkpoint repair" `Quick test_ras_checkpoint_repair;
    Alcotest.test_case "mispredict counter" `Quick test_mispredict_counter;
    Alcotest.test_case "disassembler" `Quick test_disasm;
  ]
