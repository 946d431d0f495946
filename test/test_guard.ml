(** Guard-rail tests (lib/guard): each planted structural corruption
    must be detected by the matching invariant checker with the right
    subsystem tag; a forced pipeline lockup must trip the typed
    watchdog; and under degrade the supervisor must roll back to the
    last checkpoint and finish the run on the sequential reference core
    with correct architectural state. Randomized programs draw their
    seed from {!Test_seed}. *)

open Ptl_util
open Ptl_isa
module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Config = Ptl_ooo.Config
module Ooo = Ptl_ooo.Ooo_core
module Inorder = Ptl_ooo.Inorder_core
module Physreg = Ptl_ooo.Physreg
module Registry = Ptl_ooo.Registry
module Sim_failure = Ptl_ooo.Sim_failure
module Hierarchy = Ptl_mem.Hierarchy
module Cache = Ptl_mem.Cache
module Guard = Ptl_guard.Guard
module Stats = Ptl_stats.Statstree
module Fuzzgen = Ptl_fuzz.Fuzzgen
module Fuzz = Ptl_fuzz.Harness

let reg = Regs.gpr_of_name

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let build ?(base = 0x40_0000L) items =
  let a = Asm.create ~base () in
  List.iter
    (fun it ->
      match it with `I insn -> Asm.ins a insn | `L l -> Asm.label a l | `J f -> f a)
    items;
  Asm.assemble a

let i x = `I x

(* The summing loop: rax = n*(n+1)/2 when it halts. Long enough runs
   keep the pipeline busy while a test plants its corruption. *)
let sum_loop n =
  [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
    i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm (Int64.of_int n)));
    `L "loop";
    i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.RM (Insn.Reg (reg "rcx"))));
    i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
    `J (fun a -> Asm.jcc a Flags.NE "loop");
    i Insn.Hlt ]

let sum_expected n = Int64.of_int (n * (n + 1) / 2)

let make ?(core = "ooo") ?(config = Config.tiny) items =
  let m = Machine.create (build items) in
  (m, Registry.build core config m.Machine.env [| m.Machine.ctx |])

let ooo_of inst =
  match inst.Registry.handle with
  | Registry.Core_ooo c -> c
  | _ -> Alcotest.fail "expected an ooo core handle"

let inorder_of inst =
  match inst.Registry.handle with
  | Registry.Core_inorder c -> c
  | _ -> Alcotest.fail "expected an inorder core handle"

(* Guard diagnostic bundles go nowhere during tests. *)
let devnull = lazy (open_out "/dev/null")

let wrap ?(gcfg = { Guard.default_config with Guard.interval = 1 }) m inst =
  Guard.wrap ~config:gcfg ~out:(Lazy.force devnull) ~env:m.Machine.env
    ~ctx:m.Machine.ctx inst

let step_n inst n =
  for _ = 1 to n do
    if not (inst.Registry.idle ()) then inst.Registry.step ()
  done

(* Drive to completion; fail the test rather than spin forever. *)
let run_to_idle ?(budget = 2_000_000) inst =
  let budget = ref budget in
  while (not (inst.Registry.idle ())) && !budget > 0 do
    inst.Registry.step ();
    decr budget
  done;
  if !budget = 0 then Alcotest.fail "guarded run did not finish in budget"

(* The invariant sweep over [inst] must currently report a violation
   whose subsystem tag contains [sub] (and whose message contains
   [needle]). *)
let detect ?(needle = "") ~sub m inst =
  match Guard.first_violation (Guard.checks_for_instance m.Machine.env inst) with
  | Some (c, msg) ->
    if not (contains c.Guard.subsystem sub) then
      Alcotest.failf "wrong subsystem %S for %S (wanted *%s*)" c.Guard.subsystem
        msg sub;
    if not (contains msg needle) then
      Alcotest.failf "violation %S does not mention %S" msg needle
  | None -> Alcotest.failf "planted %s corruption was not detected" sub

(* The sweep must be clean (guards each test against pre-existing false
   positives before it plants anything). *)
let expect_clean m inst =
  match Guard.first_violation (Guard.checks_for_instance m.Machine.env inst) with
  | Some (c, msg) ->
    Alcotest.failf "false positive before corruption: %s: %s" c.Guard.name msg
  | None -> ()

let expect_failure ~sub f =
  match f () with
  | _ -> Alcotest.failf "expected a Sim_failure tagged *%s*" sub
  | exception Sim_failure.Sim_failure fl ->
    if not (contains fl.Sim_failure.subsystem sub) then
      Alcotest.failf "wrong subsystem %S (wanted *%s*)" fl.Sim_failure.subsystem
        sub;
    fl

(* --- clean sweeps: no false positives on healthy cores --- *)

let test_clean_sum_loop () =
  let m, inst = make (sum_loop 500) in
  let g = wrap m inst in
  run_to_idle g;
  Alcotest.(check int64) "sum" (sum_expected 500) (Machine.gpr m (reg "rax"));
  let st = m.Machine.env.Env.stats in
  Alcotest.(check int) "no violations" 0 (Stats.get st "guard.violations");
  Alcotest.(check bool) "sweeps ran" true (Stats.get st "guard.check_passes" > 0);
  Alcotest.(check int) "not degraded" 0 (Stats.get st "guard.degraded")

let test_clean_random_programs () =
  (* Seeded random programs through the full supervisor, every core
     model with structural state, strict TLB mode on (a bare machine
     never edits live page tables, so the pagetable-agreement check is
     sound here). *)
  let rng = Test_seed.rng ~salt:31 () in
  List.iter
    (fun core ->
      for _ = 1 to 4 do
        let prog = Fuzzgen.generate rng ~classes:Fuzzgen.all_classes ~len:16 in
        let m = Machine.create (Fuzzgen.build prog) in
        let inst =
          Registry.build core Config.tiny m.Machine.env [| m.Machine.ctx |]
        in
        let gcfg =
          { Guard.default_config with Guard.interval = 1; strict_tlb = true }
        in
        let g = wrap ~gcfg m inst in
        run_to_idle g;
        Alcotest.(check int)
          (core ^ " violations") 0
          (Stats.get m.Machine.env.Env.stats "guard.violations")
      done)
    [ "ooo"; "inorder" ]

(* --- planted corruption: each checker fires with its subsystem tag --- *)

(* Step until [cond] holds (the pipeline fill takes a cold-cache
   dependent number of cycles, so fixed counts are not reliable). *)
let step_until inst cond =
  let tries = ref 20_000 in
  while (not (cond ())) && !tries > 0 do
    inst.Registry.step ();
    decr tries
  done;
  if !tries = 0 then Alcotest.fail "condition not reached while warming up"

(* Warm the pipeline into a steady busy state mid-loop: several uops in
   the ROB and at least one physical register live. *)
let warm_ooo ?config () =
  let m, inst = make ?config (sum_loop 100_000) in
  let core = ooo_of inst in
  step_until inst (fun () -> Ring.length core.Ooo.threads.(0).Ooo.rob >= 4);
  Alcotest.(check bool) "pipeline busy" false (inst.Registry.idle ());
  expect_clean m inst;
  (m, inst, core)

let test_corrupt_freelist () =
  let m, inst, core = warm_ooo () in
  (* push a live (non-Free) register back onto the free list *)
  let prf = core.Ooo.prf in
  let live = ref (-1) in
  Array.iteri
    (fun idx st -> if !live < 0 && st <> Physreg.Free then live := idx)
    prf.Physreg.state;
  if !live < 0 then Alcotest.fail "no live physreg after warmup";
  Ring.push prf.Physreg.free !live;
  detect ~sub:"physreg" m inst

let test_corrupt_physreg_leak () =
  let m, inst, core = warm_ooo () in
  (* a register that is neither free nor referenced by any RAT/ROB
     entry has leaked; fabricate one by marking a Free register Written
     without putting it anywhere *)
  let prf = core.Ooo.prf in
  let victim = Ring.pop prf.Physreg.free in
  prf.Physreg.state.(victim) <- Physreg.Written;
  detect ~sub:"physreg" m inst

let test_corrupt_rob_order () =
  let m, inst, core = warm_ooo () in
  (* swap two adjacent ROB entries: age order is broken *)
  let rob = core.Ooo.threads.(0).Ooo.rob in
  if Ring.length rob < 2 then Alcotest.fail "ROB too empty to corrupt";
  let a = Ring.get rob 0 and b = Ring.get rob 1 in
  Ring.set rob 0 b;
  Ring.set rob 1 a;
  detect ~sub:"rob" m inst

(* The first ROB entry satisfying [p], stepping until one exists. *)
let step_to_entry inst core what p =
  let find () =
    let found = ref None in
    Array.iter
      (fun th ->
        Ring.iter th.Ooo.rob (fun e -> if !found = None && p e then found := Some e))
      core.Ooo.threads;
    !found
  in
  let tries = ref 2_000 in
  while find () = None && !tries > 0 do
    inst.Registry.step ();
    decr tries
  done;
  match find () with
  | Some e -> e
  | None -> Alcotest.failf "no %s found" what

let test_corrupt_iq_slot () =
  let m, inst, core = warm_ooo () in
  (* flip a queued entry out of Waiting without freeing its slot *)
  let e = step_to_entry inst core "queued entry" (fun e -> e.Ooo.in_iq >= 0) in
  expect_clean m inst;
  e.Ooo.state <- Ooo.Issued;
  detect ~sub:"iq" m inst

let test_corrupt_iq_counters () =
  (* a free-slot counter, then a per-thread counter, drifts from the
     queue's real occupancy *)
  let m, inst, core = warm_ooo () in
  core.Ooo.iq_free.(0) <- core.Ooo.iq_free.(0) - 1;
  detect ~sub:"iq" m inst;
  core.Ooo.iq_free.(0) <- core.Ooo.iq_free.(0) + 1;
  expect_clean m inst;
  core.Ooo.iq_thread.(0) <- core.Ooo.iq_thread.(0) + 1;
  detect ~sub:"iq" m inst

let test_corrupt_ready_set () =
  let m, inst, core = warm_ooo () in
  (* plant a completed entry in a ready set with room for it *)
  let e =
    step_to_entry inst core "completed entry" (fun e ->
        e.Ooo.state = Ooo.Done
        && core.Ooo.ready_len.(0) < Array.length core.Ooo.ready.(0))
  in
  expect_clean m inst;
  let n = core.Ooo.ready_len.(0) in
  core.Ooo.ready.(0).(n) <- e.Ooo.handle;
  core.Ooo.ready_len.(0) <- n + 1;
  detect ~sub:"iq" m inst

let test_corrupt_stale_handle () =
  let m, inst, core = warm_ooo () in
  (* step until an annulment: after it, a thread's youngest entry is
     older than an entry it held before the step (commit removes the
     oldest entries and rename adds younger ones) *)
  let rob = core.Ooo.threads.(0).Ooo.rob in
  let annulled = ref None and tries = ref 20_000 in
  while !annulled = None && !tries > 0 do
    let before = Ring.to_list rob in
    inst.Registry.step ();
    decr tries;
    if not (Ring.is_empty rob) then begin
      let youngest = (Ring.get rob (Ring.length rob - 1)).Ooo.seq in
      annulled := List.find_opt (fun e -> e.Ooo.seq > youngest) before
    end
  done;
  let e = match !annulled with Some e -> e | None -> Alcotest.fail "no annulment" in
  Alcotest.(check int) "annulled slot is empty" (-1)
    core.Ooo.slots.(e.Ooo.handle).Ooo.handle;
  expect_clean m inst;
  (* its handle, left behind in a ready set, is stale *)
  let n = core.Ooo.ready_len.(0) in
  if n = Array.length core.Ooo.ready.(0) then Alcotest.fail "ready set full";
  core.Ooo.ready.(0).(n) <- e.Ooo.handle;
  core.Ooo.ready_len.(0) <- n + 1;
  detect ~needle:"stale handle" ~sub:"iq" m inst

let test_corrupt_wheel () =
  let m, inst, core = warm_ooo () in
  (* a completed entry left behind in the completion wheel *)
  let e = step_to_entry inst core "completed entry" (fun e -> e.Ooo.state = Ooo.Done) in
  expect_clean m inst;
  let b = (m.Machine.env.Env.cycle + 1) land (Array.length core.Ooo.wheel - 1) in
  core.Ooo.wheel_next.(e.Ooo.handle) <- core.Ooo.wheel.(b);
  core.Ooo.wheel.(b) <- e.Ooo.handle;
  detect ~sub:"iq" m inst

let test_corrupt_mshr_leak () =
  let m, inst, core = warm_ooo () in
  (* an MSHR whose completion lies beyond any legitimate latency chain *)
  Ptl_util.Int_tbl.replace core.Ooo.hierarchy.Hierarchy.mshr 0x1234
    (m.Machine.env.Env.cycle + 500_000_000);
  detect ~sub:"mem" m inst

let test_corrupt_cache_tag () =
  let m, inst, core = warm_ooo () in
  if not (Cache.debug_duplicate_tag core.Ooo.hierarchy.Hierarchy.l1d) then
    Alcotest.fail "no valid L1D line to duplicate after warmup";
  detect ~sub:"mem" m inst

(* The same physreg corruption must also surface through the wrapped
   supervisor as a typed Sim_failure (the end-to-end path the CLI and
   fuzz harness rely on). *)
let test_supervisor_raises () =
  let m, inst, core = warm_ooo () in
  let g = wrap m inst in
  step_n g 8;
  let prf = core.Ooo.prf in
  let victim = Ring.pop prf.Physreg.free in
  prf.Physreg.state.(victim) <- Physreg.Written;
  let fl = expect_failure ~sub:"physreg" (fun () -> step_n g 4) in
  Alcotest.(check bool) "invariant kind" true
    (fl.Sim_failure.kind = Sim_failure.Invariant);
  (* the rendered bundle is self-contained *)
  let bundle = Sim_failure.render fl in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("bundle has " ^ needle) true (contains bundle needle))
    [ "subsystem"; "physreg"; "cycle"; "rip"; "invariant" ];
  ignore m

(* A test-planted tripwire through the pluggable registry API. *)
let test_register_check_tripwire () =
  let m, inst = make (sum_loop 100_000) in
  let g = wrap m inst in
  let armed = ref false in
  Guard.register_check g
    (Guard.make_check ~name:"test.tripwire" ~subsystem:"selftest" (fun () ->
         if !armed then Some "boom" else None));
  step_n g 16;
  armed := true;
  let fl = expect_failure ~sub:"selftest" (fun () -> step_n g 2) in
  Alcotest.(check bool) "message carried" true
    (contains fl.Sim_failure.message "boom")

(* --- watchdogs: a stuck pipeline raises a typed Lockup --- *)

let test_ooo_watchdog () =
  let config = { Config.tiny with Config.watchdog_cycles = 2_000 } in
  let m, inst, core = warm_ooo ~config () in
  (* wedge commit: strand the ROB head in Waiting with no issue-queue
     slot, so it can never be selected or completed again *)
  let rob = core.Ooo.threads.(0).Ooo.rob in
  let head = Ring.get rob 0 in
  head.Ooo.state <- Ooo.Waiting;
  head.Ooo.in_iq <- -1;
  let fl = expect_failure ~sub:"watchdog" (fun () -> step_n inst 10_000) in
  Alcotest.(check bool) "lockup kind" true (fl.Sim_failure.kind = Sim_failure.Lockup);
  Alcotest.(check bool) "cycle recorded" true (fl.Sim_failure.cycle > 0);
  ignore m

let test_inorder_watchdog () =
  let config = { Config.tiny with Config.watchdog_cycles = 500 } in
  let m, inst = make ~core:"inorder" ~config (sum_loop 1_000_000) in
  let core = inorder_of inst in
  step_n inst 50;
  (* emulate a wedged commit counter: progress tracking never advances *)
  core.Inorder.wd_last_insns <- max_int;
  let fl = expect_failure ~sub:"inorder.watchdog" (fun () -> step_n inst 10_000) in
  Alcotest.(check bool) "lockup kind" true (fl.Sim_failure.kind = Sim_failure.Lockup);
  ignore m

(* --- checkpoint rollback + degrade round trip --- *)

let test_degrade_rollback () =
  let n = 3_000 in
  let config = { Config.tiny with Config.watchdog_cycles = 500 } in
  let m, inst = make ~config (sum_loop n) in
  let core = ooo_of inst in
  let gcfg =
    {
      Guard.default_config with
      Guard.interval = 8;
      checkpoint_every = 200;
      degrade = true;
    }
  in
  let g = wrap ~gcfg m inst in
  (* run to mid-loop, then force a lockup *)
  step_n g 1_500;
  Alcotest.(check bool) "still running" false (g.Registry.idle ());
  let rob = core.Ooo.threads.(0).Ooo.rob in
  if Ring.is_empty rob then Alcotest.fail "empty ROB mid-loop";
  let head = Ring.get rob 0 in
  head.Ooo.state <- Ooo.Waiting;
  head.Ooo.in_iq <- -1;
  (* under degrade nothing is raised: the supervisor rolls back to the
     last checkpoint and finishes the run on the sequential core *)
  run_to_idle g;
  let st = m.Machine.env.Env.stats in
  Alcotest.(check int) "one violation" 1 (Stats.get st "guard.violations");
  Alcotest.(check int) "one rollback" 1 (Stats.get st "guard.rollbacks");
  Alcotest.(check int) "degraded once" 1 (Stats.get st "guard.degraded");
  Alcotest.(check bool) "checkpoints taken" true (Stats.get st "guard.checkpoints" > 1);
  (* architectural state is exactly the program's result *)
  Alcotest.(check int64) "sum" (sum_expected n) (Machine.gpr m (reg "rax"));
  Alcotest.(check int64) "counter drained" 0L (Machine.gpr m (reg "rcx"))

(* without degrade nothing reads a checkpoint back, so none is taken
   however short the checkpoint period *)
let test_no_checkpoints_without_degrade () =
  let n = 3_000 in
  let m, inst = make (sum_loop n) in
  let gcfg =
    { Guard.default_config with Guard.interval = 8; checkpoint_every = 200 }
  in
  run_to_idle (wrap ~gcfg m inst);
  let st = m.Machine.env.Env.stats in
  Alcotest.(check int64) "sum" (sum_expected n) (Machine.gpr m (reg "rax"));
  Alcotest.(check bool) "sweeps ran" true (Stats.get st "guard.check_passes" > 0);
  Alcotest.(check int) "no checkpoints" 0 (Stats.get st "guard.checkpoints")

(* --- guard inside the fuzz harness: clean sweep stays clean --- *)

let test_fuzz_with_guard_clean () =
  let s =
    Fuzz.run ~core:"ooo"
      ~guard:{ Guard.default_config with Guard.interval = 4 }
      ~len:12 ~seed:Test_seed.seed ~iters:6 ()
  in
  Alcotest.(check int) "no findings" 0 (List.length s.Fuzz.s_divergences)

let suite =
  [
    Alcotest.test_case "clean guarded sum loop" `Quick test_clean_sum_loop;
    Alcotest.test_case "clean guarded random programs (strict TLB)" `Quick
      test_clean_random_programs;
    Alcotest.test_case "corrupt free list -> physreg" `Quick test_corrupt_freelist;
    Alcotest.test_case "leak physreg -> physreg" `Quick test_corrupt_physreg_leak;
    Alcotest.test_case "reorder ROB slot -> rob" `Quick test_corrupt_rob_order;
    Alcotest.test_case "corrupt iq slot -> iq" `Quick test_corrupt_iq_slot;
    Alcotest.test_case "iq counter drift -> iq" `Quick test_corrupt_iq_counters;
    Alcotest.test_case "non-Waiting ready-set member -> iq" `Quick test_corrupt_ready_set;
    Alcotest.test_case "stale wheel entry -> iq" `Quick test_corrupt_wheel;
    Alcotest.test_case "annulled handle in a ready set -> iq" `Quick
      test_corrupt_stale_handle;
    Alcotest.test_case "leak MSHR -> mem" `Quick test_corrupt_mshr_leak;
    Alcotest.test_case "duplicate cache tag -> mem" `Quick test_corrupt_cache_tag;
    Alcotest.test_case "supervisor raises typed failure" `Quick test_supervisor_raises;
    Alcotest.test_case "pluggable tripwire check" `Quick test_register_check_tripwire;
    Alcotest.test_case "ooo lockup watchdog" `Quick test_ooo_watchdog;
    Alcotest.test_case "inorder lockup watchdog" `Quick test_inorder_watchdog;
    Alcotest.test_case "degrade: rollback + seq completion" `Quick test_degrade_rollback;
    Alcotest.test_case "no checkpoints without degrade" `Quick
      test_no_checkpoints_without_degrade;
    Alcotest.test_case "fuzz harness under guard stays clean" `Quick
      test_fuzz_with_guard_clean;
  ]
