(* Matched-pair sweep engine tests (lib/sweep): the spec parser
   round-trips its canonical text and rejects every malformed spec with
   the right typed error; paired-CI arithmetic matches hand-computed
   fixtures; contradictory CLI flag combinations are refused; and an
   end-to-end sweep over a phased capture resolves a planted
   memory-latency delta with paired statistics that independent-run
   statistics cannot see at the same interval budget. *)

module Sweep = Ptl_sweep.Sweep
module Paired = Ptl_stats.Paired
module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Config = Ptl_ooo.Config
module Machine = Ptl_arch.Machine
module Domain = Ptl_hyper.Domain
module Insn = Ptl_isa.Insn
module G = Ptl_workloads.Gasm

let err_name = function
  | Sweep.E_syntax _ -> "syntax"
  | Sweep.E_unknown_key _ -> "unknown_key"
  | Sweep.E_bad_value _ -> "bad_value"
  | Sweep.E_empty_values _ -> "empty_values"
  | Sweep.E_duplicate_axis _ -> "duplicate_axis"
  | Sweep.E_too_many_legs _ -> "too_many_legs"
  | Sweep.E_bad_geometry _ -> "bad_geometry"

let check_err name expected = function
  | Ok _ -> Alcotest.fail (name ^ ": accepted a bad spec")
  | Error e ->
    Alcotest.(check string) name expected (err_name e);
    (* every error renders a diagnostic *)
    Alcotest.(check bool) (name ^ ": message") true
      (String.length (Sweep.error_to_string e) > 0)

let parse_ok text =
  match Sweep.parse text with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sweep.error_to_string e)

(* ---- spec parser ---- *)

let test_round_trip () =
  let text = "cache.l2.size=16k,32k,64k x bpred=gshare,hybrid x mem.latency=40,80" in
  let s = parse_ok text in
  Alcotest.(check string) "to_string is canonical" text (Sweep.to_string s);
  (match Sweep.parse (Sweep.to_string s) with
  | Ok s2 -> Alcotest.(check bool) "reparse equals" true (s = s2)
  | Error e -> Alcotest.fail (Sweep.error_to_string e));
  (* extra spaces and tabs normalise to the same spec *)
  let s3 =
    parse_ok
      "  cache.l2.size=16k,32k,64k   x\tbpred=gshare,hybrid x mem.latency=40,80 "
  in
  Alcotest.(check bool) "whitespace-insensitive" true (s = s3)

let test_cross_product () =
  let spec = parse_ok "cache.l2.size=16k,32k x bpred=gshare,bimodal" in
  match Sweep.legs ~base:Config.tiny spec with
  | Error e -> Alcotest.fail (Sweep.error_to_string e)
  | Ok legs ->
    Alcotest.(check int) "2x2 legs" 4 (List.length legs);
    (* odometer order: first axis varies slowest *)
    Alcotest.(check (list string)) "leg names"
      [
        "cache.l2.size=16k,bpred=gshare";
        "cache.l2.size=16k,bpred=bimodal";
        "cache.l2.size=32k,bpred=gshare";
        "cache.l2.size=32k,bpred=bimodal";
      ]
      (List.map (fun l -> l.Sweep.l_name) legs);
    (* every leg keys a distinct result-cache universe *)
    let digests = List.map (fun l -> l.Sweep.l_digest) legs in
    Alcotest.(check int) "digests distinct" 4
      (List.length (List.sort_uniq String.compare digests));
    Alcotest.(check bool) "base digest untouched" false
      (List.mem (Store.config_digest Config.tiny) digests)

let test_typed_errors () =
  check_err "unknown key" "unknown_key" (Sweep.parse "cache.l4.size=1m");
  check_err "empty value list" "empty_values" (Sweep.parse "mem.latency=");
  check_err "empty value in list" "empty_values" (Sweep.parse "mem.latency=40,");
  check_err "duplicate axis" "duplicate_axis"
    (Sweep.parse "bpred=gshare x bpred=hybrid");
  check_err "non-pow2 size" "bad_value" (Sweep.parse "cache.l2.size=7k");
  check_err "unknown enum value" "bad_value" (Sweep.parse "bpred=oracle");
  check_err "rename pool too small" "bad_value" (Sweep.parse "phys.regs=8");
  check_err "missing '='" "syntax" (Sweep.parse "bpred");
  check_err "trailing x" "syntax" (Sweep.parse "bpred=gshare x");
  check_err "leading x" "syntax" (Sweep.parse "x bpred=gshare");
  check_err "axes without separator" "syntax"
    (Sweep.parse "bpred=gshare mem.latency=40");
  check_err "empty spec" "syntax" (Sweep.parse "   ");
  check_err "cross product capped" "too_many_legs"
    (Sweep.parse
       ("rob.size="
       ^ String.concat "," (List.init 257 (fun i -> string_of_int (i + 16)))));
  (* geometry that Cache.create would reject is a typed error at spec
     expansion, not an exception mid-replay *)
  check_err "ways do not divide the lines" "bad_geometry"
    (Sweep.legs ~base:Config.tiny (parse_ok "cache.l1d.ways=3"))

(* ---- paired-CI arithmetic against hand-computed fixtures ---- *)

let feps = Alcotest.float 1e-6

let test_paired_fixtures () =
  (* constant shift: all delta variance cancels, so the paired CI is 0
     while the independent CI is dominated by the workload spread *)
  let baseline = [| 2.0; 4.0; 6.0; 8.0 |] in
  let candidate = [| 2.5; 4.5; 6.5; 8.5 |] in
  let t = Paired.compare ~baseline ~candidate in
  Alcotest.(check int) "pairs" 4 t.Paired.n;
  Alcotest.check feps "mean baseline" 5.0 t.Paired.mean_baseline;
  Alcotest.check feps "mean candidate" 5.5 t.Paired.mean_candidate;
  Alcotest.check feps "delta mean" 0.5 t.Paired.delta_mean;
  Alcotest.check feps "delta sd" 0.0 t.Paired.delta_sd;
  Alcotest.check feps "paired ci95" 0.0 t.Paired.delta_ci95;
  (* var = 20/3 each side; 1.96 * sqrt(2 * (20/3) / 4) *)
  Alcotest.check (Alcotest.float 1e-4) "independent ci95" 3.57845
    t.Paired.indep_ci95;
  Alcotest.(check bool) "paired resolves the shift" true
    (Paired.paired_excludes_zero t);
  Alcotest.(check bool) "independent cannot" false (Paired.indep_excludes_zero t);
  Alcotest.(check string) "candidate is a loss (higher CPI)" "loss"
    (Paired.verdict_to_string (Paired.verdict t));
  (* varying deltas: sd over n-1; ci = 1.96 * sd / sqrt n *)
  let t2 =
    Paired.compare ~baseline:[| 1.0; 2.0; 3.0 |]
      ~candidate:[| 0.9; 1.7; 2.8 |]
  in
  Alcotest.check feps "delta mean (win)" (-0.2) t2.Paired.delta_mean;
  Alcotest.check feps "delta sd (win)" 0.1 t2.Paired.delta_sd;
  Alcotest.check (Alcotest.float 1e-5) "paired ci95 (win)"
    (1.96 *. 0.1 /. sqrt 3.0) t2.Paired.delta_ci95;
  Alcotest.(check string) "candidate is a win" "win"
    (Paired.verdict_to_string (Paired.verdict t2));
  (* a single pair can never exclude zero *)
  let t3 = Paired.compare ~baseline:[| 1.0 |] ~candidate:[| 0.5 |] in
  Alcotest.(check string) "one pair is a tie" "tie"
    (Paired.verdict_to_string (Paired.verdict t3));
  Alcotest.(check bool) "one pair excludes nothing" false
    (Paired.paired_excludes_zero t3 || Paired.indep_excludes_zero t3);
  (* mismatched interval sets are a caller bug, not a silent truncation *)
  match Paired.compare ~baseline:[| 1.0; 2.0 |] ~candidate:[| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* ---- end to end over a phased capture ---- *)

let schedule =
  { Sample.ff_insns = 8_000; warmup_insns = 600; measure_insns = 1_200 }

(* Alternating phases: a friendly loop hammering one line, then a
   64-byte stride over 128 KB — double the tiny config's L2 — so
   intervals land in wildly different CPI regimes (huge
   interval-to-interval variance, the enemy of independent CIs) and the
   measured windows actually touch memory (sensitivity to the planted
   mem.latency delta). *)
let phased_domain () =
  let g = G.create () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rdx 10;
  G.label g "phase";
  G.lii g G.rcx 1_200;
  G.label g "fr";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.dec g G.rcx;
  G.jne g "fr";
  G.li g G.rsi Machine.heap_base;
  G.lii g G.rcx 2_048;
  G.label g "ho";
  G.ld g G.rax ~base:G.rsi ();
  G.addi g G.rsi 64;
  G.dec g G.rcx;
  G.jne g "ho";
  G.dec g G.rdx;
  G.jne g "phase";
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  Domain.create ~core:"ooo" ~config:Config.tiny m.Machine.env m.Machine.ctx

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optlsim_sweep_test_%d_%d" (Unix.getpid ()) !n)

(* one phased capture, shared by the end-to-end tests (legs accumulate
   in its result cache, which is itself part of what we test) *)
let store =
  lazy
    (let placement = Sample.Rand_offset 7 in
     let cr = Sample.run_capture ~placement ~schedule (phased_domain ()) in
     match
       Store.create ~dir:(fresh_dir ()) ~workload:"sweep-test" ~core:"ooo"
         ~schedule
         ~placement:(Sample.placement_to_string placement)
         cr ~config:Config.tiny
     with
     | Ok s -> s
     | Error e -> Alcotest.fail (Store.error_to_string e))

let run_ok st spec =
  match Sweep.run ~jobs:1 st spec with
  | Ok r -> r
  | Error m -> Alcotest.fail m

(* the tentpole claim: a planted ~10% memory-latency delta is resolved
   by the paired CIs and invisible to independent-run CIs at the same
   interval budget *)
let test_planted_delta () =
  let st = Lazy.force store in
  let r = run_ok st (parse_ok "mem.latency=36,44") in
  Alcotest.(check int) "base + 2 legs ranked" 3 (List.length r.Sweep.rep_ranked);
  let best = List.hd r.Sweep.rep_ranked in
  Alcotest.(check string) "planted-better leg ranked first" "mem.latency=36"
    best.Sweep.rk.Sweep.lr_leg.Sweep.l_name;
  let base_row =
    List.find (fun rk -> rk.Sweep.rk_base) r.Sweep.rep_ranked
  in
  Alcotest.(check string) "base vs itself is a tie" "tie"
    (Paired.verdict_to_string base_row.Sweep.rk_verdict);
  List.iter
    (fun rk ->
      if not rk.Sweep.rk_base then begin
        let name = rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name in
        let cmp = rk.Sweep.rk_vs_base in
        Alcotest.(check bool) (name ^ ": pairs matched") true
          (cmp.Paired.n >= 2);
        Alcotest.(check bool) (name ^ ": paired CI resolves the delta") true
          (Paired.paired_excludes_zero cmp);
        Alcotest.(check bool) (name ^ ": independent CI is blind to it") false
          (Paired.indep_excludes_zero cmp)
      end)
    r.Sweep.rep_ranked;
  let verdict_of name =
    let rk =
      List.find
        (fun rk -> rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name = name)
        r.Sweep.rep_ranked
    in
    Paired.verdict_to_string rk.Sweep.rk_verdict
  in
  Alcotest.(check string) "faster memory wins" "win"
    (verdict_of "mem.latency=36");
  Alcotest.(check string) "slower memory loses" "loss"
    (verdict_of "mem.latency=44")

(* same store + same spec = byte-identical report, and the second run
   is answered entirely from the result cache *)
let test_determinism_and_cache () =
  let st = Lazy.force store in
  let spec = parse_ok "mem.latency=36,44" in
  let r1 = run_ok st spec in
  let r2 = run_ok st spec in
  Alcotest.(check string) "byte-identical report"
    (Sweep.render_string r1) (Sweep.render_string r2);
  List.iter
    (fun rk ->
      Alcotest.(check int)
        (rk.Sweep.rk.Sweep.lr_leg.Sweep.l_name ^ ": rerun fully cached") 0
        rk.Sweep.rk.Sweep.lr_replayed)
    r2.Sweep.rep_ranked;
  (* base + both legs left their results behind *)
  Alcotest.(check bool) "cache holds >= 3 config digests" true
    (List.length (Store.cached_digests st) >= 3)

(* a leg that changes cache and predictor geometry cannot reuse the
   captured uarch snapshots: those components start cold and re-warm,
   and the replay must complete rather than crash on the mismatch *)
let test_geometry_change_leg () =
  let st = Lazy.force store in
  let r = run_ok st (parse_ok "cache.l2.size=32k x bpred=bimodal") in
  let leg =
    List.find (fun rk -> not rk.Sweep.rk_base) r.Sweep.rep_ranked
  in
  let lr = leg.Sweep.rk in
  Alcotest.(check string) "leg name" "cache.l2.size=32k,bpred=bimodal"
    lr.Sweep.lr_leg.Sweep.l_name;
  Alcotest.(check bool) "every interval replayed" true
    (lr.Sweep.lr_result.Sample.measured_insns > 0);
  Alcotest.(check int) "same interval count as base"
    (List.length r.Sweep.rep_base.Sweep.lr_result.Sample.intervals)
    (List.length lr.Sweep.lr_result.Sample.intervals);
  Alcotest.(check bool) "timed CPI is sane" true
    (lr.Sweep.lr_result.Sample.cpi > 0.5
    && lr.Sweep.lr_result.Sample.cpi < 100.0)

(* a PWC leg over a capture taken with walk caches disabled: the stored
   uarch snapshots hold no PWC state, so the pwc.entries=16 leg's walk
   caches restore fit-tolerantly (start cold and warm up) and the paired
   report still comes out — the fleet-replay side of the VM scenario
   axes *)
let test_pwc_geometry_leg () =
  let st = Lazy.force store in
  let r = run_ok st (parse_ok "pwc.entries=0,16") in
  Alcotest.(check int) "base + 2 legs ranked" 3 (List.length r.Sweep.rep_ranked);
  List.iter
    (fun rk ->
      if not rk.Sweep.rk_base then begin
        let lr = rk.Sweep.rk in
        let name = lr.Sweep.lr_leg.Sweep.l_name in
        Alcotest.(check bool) (name ^ ": replay completed") true
          (lr.Sweep.lr_result.Sample.measured_insns > 0);
        Alcotest.(check int) (name ^ ": same interval count as base")
          (List.length r.Sweep.rep_base.Sweep.lr_result.Sample.intervals)
          (List.length lr.Sweep.lr_result.Sample.intervals);
        Alcotest.(check bool) (name ^ ": timed CPI is sane") true
          (lr.Sweep.lr_result.Sample.cpi > 0.5
          && lr.Sweep.lr_result.Sample.cpi < 100.0)
      end)
    r.Sweep.rep_ranked

let suite =
  [
    Alcotest.test_case "spec round-trips" `Quick test_round_trip;
    Alcotest.test_case "cross product in odometer order" `Quick
      test_cross_product;
    Alcotest.test_case "typed spec errors" `Quick test_typed_errors;
    Alcotest.test_case "paired-CI fixtures" `Quick test_paired_fixtures;
    Alcotest.test_case "planted delta: paired sees, independent is blind"
      `Quick test_planted_delta;
    Alcotest.test_case "deterministic report, cached rerun" `Quick
      test_determinism_and_cache;
    Alcotest.test_case "geometry-changing leg replays cold" `Quick
      test_geometry_change_leg;
    Alcotest.test_case "pwc leg restores fit-tolerantly" `Quick
      test_pwc_geometry_leg;
  ]
