(** Tests for the differential fuzzing harness (lib/fuzz): generator
    encode/decode round-trips over its opcode space, delta-debugging
    shrinking, clean-sweep differential properties on the timed cores,
    CLI flag validation, and the paper's §2.3 self-test — a deliberately
    planted core bug must be caught, shrunk and reported with a trace
    window. *)

module W64 = Ptl_util.W64
module Insn = Ptl_isa.Insn
module Flags = Ptl_isa.Flags
module Encode = Ptl_isa.Encode
module Decode = Ptl_isa.Decode
module Disasm = Ptl_isa.Disasm
module Asm = Ptl_isa.Asm
module Fuzzgen = Ptl_fuzz.Fuzzgen
module Shrink = Ptl_fuzz.Shrink
module Fuzz = Ptl_fuzz.Harness
module Cosim = Ptl_hyper.Cosim
module Registry = Ptl_ooo.Registry
module Trace = Ptl_trace.Trace

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let decode_bytes ?(rip = 0L) s =
  let base = rip in
  Decode.decode
    ~fetch:(fun va -> Char.code s.[Int64.to_int (Int64.sub va base)])
    ~rip

(* --- generator opcode space round-trips (every instruction in every
   assembled fuzz program decodes, re-encodes and decodes back to the
   same AST, and disassembles to non-empty text) --- *)

let test_generator_roundtrips () =
  let rng = Test_seed.rng ~salt:1 () in
  let insns = ref 0 in
  for _ = 1 to 60 do
    let prog = Fuzzgen.generate rng ~classes:Fuzzgen.all_classes ~len:30 in
    let img = Fuzzgen.build prog in
    let code = img.Asm.code in
    let base = img.Asm.img_base in
    let fetch va = Char.code code.[Int64.to_int (Int64.sub va base)] in
    let limit = Int64.add base (Int64.of_int (String.length code)) in
    let rip = ref base in
    while !rip < limit do
      let insn, len = Decode.decode ~fetch ~rip:!rip in
      incr insns;
      let text = Disasm.to_string insn in
      if String.length text = 0 then
        Alcotest.failf "empty disassembly at %#Lx" !rip;
      (* Re-encoding at the same rip must decode back to the same AST
         (byte equality can differ: the assembler may pin long branch
         forms during relaxation). *)
      let insn', len' = decode_bytes ~rip:!rip (Encode.encode ~rip:!rip insn) in
      if insn' <> insn then
        Alcotest.failf "re-encode changed %s into %s at %#Lx" text
          (Disasm.to_string insn') !rip;
      ignore len';
      rip := Int64.add !rip (Int64.of_int len)
    done
  done;
  Alcotest.(check bool) "walked a real corpus" true (!insns > 2000)

(* --- boundary encodings the generator can emit (regression set for the
   encoder/decoder limits found while building the fuzzer) --- *)

let test_boundary_encodings () =
  let cases =
    [
      (* most negative sign-extended imm32 at 64-bit operand size *)
      Insn.Alu (Insn.Add, W64.B8, Insn.Reg 0, Insn.Imm (-0x80000000L));
      (* byte immediates normalize to their sign-extended canonical form *)
      Insn.Mov (W64.B1, Insn.Reg 3, Insn.Imm 0xFFL);
      (* shift counts beyond the operand width still encode (masked at
         execution, as on x86) *)
      Insn.Shift (Insn.Rol, W64.B2, Insn.Reg 5, Insn.ImmC 66);
      Insn.Bittest (Insn.Btc, W64.B8, Insn.Reg 8, Insn.Bimm 63);
      (* LOCK'd byte-size RMW with a negative immediate *)
      Insn.Locked
        (Insn.Alu (Insn.Adc, W64.B1, Insn.Mem (Insn.mem_bd 15 5L), Insn.Imm (-1L)));
      (* REP prefix round-trips *)
      Insn.Movs (W64.B8, true);
      Insn.Lods (W64.B1, true);
      (* largest push immediate *)
      Insn.Push (Insn.Imm 0x7FFFFFFFL);
      Insn.Cmovcc (Flags.LE, W64.B2, 1, Insn.Reg 2);
      (* scaled-index unaligned memory operand *)
      Insn.Mov
        ( W64.B4,
          Insn.Reg 9,
          Insn.RM (Insn.Mem (Insn.mem ~base:15 ~index:3 ~scale:8 ~disp:0x1337L ())) );
    ]
  in
  List.iter
    (fun insn ->
      let insn', _ = decode_bytes (Encode.encode insn) in
      if insn' <> Encode.normalize insn then
        Alcotest.failf "boundary round trip failed for %s (got %s)"
          (Disasm.to_string insn) (Disasm.to_string insn'))
    cases

(* --- generator determinism: one seed, one program --- *)

let test_generator_deterministic () =
  let gen () =
    let rng = Ptl_util.Rng.create 1234 in
    Fuzzgen.build (Fuzzgen.generate rng ~classes:Fuzzgen.all_classes ~len:50)
  in
  let a = gen () and b = gen () in
  Alcotest.(check string) "identical images" a.Asm.code b.Asm.code

let test_parse_classes () =
  Alcotest.(check int) "empty = all"
    (List.length Fuzzgen.all_classes)
    (List.length (Fuzzgen.parse_classes ""));
  Alcotest.(check bool) "subset" true
    (Fuzzgen.parse_classes "alu, mem" = [ Fuzzgen.Alu; Fuzzgen.Mem ]);
  (match Fuzzgen.parse_classes "bogus" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the bad class" true (contains msg "bogus"))

(* --- ddmin shrinking --- *)

let test_shrink_single_culprit () =
  let test a = Array.exists (fun x -> x = 7) a in
  Alcotest.(check (array int)) "isolates the culprit" [| 7 |]
    (Shrink.minimize ~test [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |])

let test_shrink_interaction_pair () =
  let test a = Array.exists (fun x -> x = 3) a && Array.exists (fun x -> x = 9) a in
  let r = Shrink.minimize ~test [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] in
  Array.sort compare r;
  Alcotest.(check (array int)) "keeps exactly the interacting pair" [| 3; 9 |] r

(* --- differential clean sweeps: the timed cores agree with the
   sequential reference on random programs over the full class mix --- *)

let clean_sweep core () =
  let s = Fuzz.run ~core ~seed:Test_seed.seed ~iters:20 () in
  List.iter (fun d -> print_string d.Fuzz.d_report) s.Fuzz.s_divergences;
  Alcotest.(check int)
    (Printf.sprintf "%s agrees with seq (seed %d)" core Test_seed.seed)
    0
    (List.length s.Fuzz.s_divergences)

(* --- the §2.3 self-test: a planted flags-write bug must be caught,
   shrunk to a handful of instructions, and reported with the shrunk
   listing, the flags diff and a trace window --- *)

let injected_run () =
  Fuzz.run ~core:"ooo"
    ~inject:(Fuzz.flags_bug ~after:2)
    ~check_every:1 ~seed:7 ~iters:2 ()

let test_injected_bug_caught () =
  let s = injected_run () in
  Alcotest.(check int) "every iteration diverges" 2
    (List.length s.Fuzz.s_divergences);
  let d = List.hd s.Fuzz.s_divergences in
  if d.Fuzz.d_insns > 5 then
    Alcotest.failf "shrunk program still has %d instructions:\n%s"
      d.Fuzz.d_insns d.Fuzz.d_report;
  Alcotest.(check bool) "first divergence located" true (d.Fuzz.d_after >= 1);
  Alcotest.(check bool) "flags diff reported" true
    (List.exists (fun l -> contains l "flags") d.Fuzz.d_diffs);
  Alcotest.(check bool) "trace window captured" true (d.Fuzz.d_trace <> []);
  (* the corrupted model is the timed core; oracle and seq still agree,
     so the majority verdict must blame ooo *)
  Alcotest.(check string) "diverging pair" "seq vs ooo" d.Fuzz.d_pair;
  Alcotest.(check bool) "verdict blames the timed core" true
    (contains d.Fuzz.d_verdict "ooo is the odd model out");
  Alcotest.(check bool) "report embeds listing" true
    (contains d.Fuzz.d_report "-- shrunk program --");
  Alcotest.(check bool) "report embeds trace window" true
    (contains d.Fuzz.d_report "-- trace window");
  Alcotest.(check bool) "report carries verdict line" true
    (contains d.Fuzz.d_report "verdict");
  Alcotest.(check bool) "report carries replay line" true
    (contains d.Fuzz.d_report "replay: optlsim fuzz --fuzz-seed 7")

(* --- the complementary self-test: plant the bug in the *spec table*
   instead — drop SUB's CF write (subtracting from the mostly-zero
   startup registers borrows constantly, so the mutation bites early);
   seq and the timed core still agree, so the three-way harness must
   localize the divergence to the oracle-seq pair and the majority
   verdict must blame the oracle --- *)

let test_planted_spec_bug_attributed () =
  let table =
    Ptl_spec.Spec.drop_flag_write ~key:"sub" ~mask:Flags.cf_mask
      Ptl_spec.Spec.table
  in
  let s =
    Fuzz.run ~core:"inorder" ~table ~classes:[ Fuzzgen.Alu ]
      ~seed:Test_seed.seed ~iters:30 ~len:10 ()
  in
  Alcotest.(check int) "every program was oracle-checked" 30
    s.Fuzz.s_oracle_checked;
  Alcotest.(check int) "no opcode escaped the spec table" 0
    s.Fuzz.s_oracle_unsupported;
  Alcotest.(check bool) "the planted spec bug produced divergences" true
    (s.Fuzz.s_divergences <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "localized to the oracle-seq pair"
        "oracle vs seq" d.Fuzz.d_pair;
      Alcotest.(check bool) "verdict blames the oracle" true
        (contains d.Fuzz.d_verdict "oracle is the odd model out");
      Alcotest.(check bool) "report names the pair" true
        (contains d.Fuzz.d_report "oracle vs seq"))
    s.Fuzz.s_divergences

let test_injected_bug_deterministic () =
  let reports s = List.map (fun d -> d.Fuzz.d_report) s.Fuzz.s_divergences in
  Alcotest.(check (list string)) "byte-identical reports across runs"
    (reports (injected_run ()))
    (reports (injected_run ()))

(* --- golden planted-bug reports: digests of every report of two runs
   with fixed seeds, pinning the first divergent instruction, the diffs,
   the trace window and the verdict. A change to how the co-simulation
   drives its models must leave them unchanged; one that alters a
   report on purpose updates the digests and says why. --- *)

let report_digests s =
  List.map (fun d -> Digest.to_hex (Digest.string d.Fuzz.d_report)) s.Fuzz.s_divergences

let test_golden_reports () =
  Alcotest.(check (list string))
    "ooo, seed 7, flags bug after 2"
    [ "5461ad325a629014066fb6e94a2c075c"; "354dbc929a83cfe1b68cc9a4c8d39040" ]
    (report_digests (injected_run ()));
  Alcotest.(check (list string))
    "smt, seed 11, flags bug after 5"
    [
      "49b59dfe0cee238974ae250cc010562b";
      "38f263fc8d3e050aacfdf125c04ef38b";
      "f90cf7994c263fda2d342b8fd9516560";
      "8e9a81f1e08958a13059fbcb2b89b7ac";
      "61f686bcb90bc32c787e6a2689ba8b4a";
      "5f45a2d36924ea9abc69a98de3224172";
    ]
    (report_digests
       (Fuzz.run ~core:"smt" ~inject:(Fuzz.flags_bug ~after:5) ~check_every:1
          ~seed:11 ~iters:6 ()))

(* --- lockstep co-simulation builds each side once: whatever the
   checkpoint spacing, one validate wraps one model instance, takes as
   many model steps as one run to the same count, and (the reference
   stepping with tracing off) captures as many trace events --- *)

let test_lockstep_builds_once () =
  let prog =
    Fuzzgen.generate (Ptl_util.Rng.create 3) ~classes:Fuzzgen.all_classes
      ~len:Fuzz.default_len
  in
  let img = Fuzzgen.build prog in
  let max_insns = (Fuzzgen.insn_count prog * 64) + 256 in
  let wraps = ref 0 and steps = ref 0 in
  let wrap _env _ctx inst =
    incr wraps;
    { inst with Registry.step = (fun () -> incr steps; inst.Registry.step ()) }
  in
  (* (wraps, model steps, trace events) of one call *)
  let count f =
    wraps := 0;
    steps := 0;
    f ();
    (!wraps, !steps, Trace.captured ())
  in
  Trace.configure ~capacity:4096 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      let lone_wraps, lone_steps, lone_events =
        count (fun () ->
            Trace.clear ();
            match Cosim.run_model ~wrap img ~n:max_insns with
            | _, Cosim.Idle -> ()
            | _ -> Alcotest.fail "the program should run to its hlt")
      in
      Alcotest.(check int) "one wrap per run_model" 1 lone_wraps;
      Alcotest.(check bool) "the model stepped" true (lone_steps > 0);
      List.iter
        (fun check_every ->
          let w, n, ev =
            count (fun () ->
                match Cosim.validate ~wrap ~check_every ~max_insns img with
                | Cosim.Agree _ -> ()
                | Cosim.Diverged { diffs; _ } ->
                  Alcotest.failf "unexpected divergence: %s" (String.concat "; " diffs))
          in
          let tag = Printf.sprintf "check_every %d: " check_every in
          Alcotest.(check int) (tag ^ "one wrap per validate") 1 w;
          Alcotest.(check int) (tag ^ "model steps of one run") lone_steps n;
          Alcotest.(check int) (tag ^ "trace events of one run") lone_events ev)
        [ 1; 32; max_insns ])

(* --- the last checkpoint is max_insns itself: a bug that shows only
   after the last multiple of check_every, or with check_every beyond
   max_insns, must still be caught. The loop keeps CF clear on the
   reference, so the planted CF write differs at any count past it. --- *)

let test_cosim_checks_tail () =
  let module G = Ptl_workloads.Gasm in
  let g = G.create () in
  G.lii g G.rcx 1_000;
  G.label g "top";
  G.addi g G.rbx 1;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  let run ?inject check_every =
    Cosim.validate ?inject ~check_every ~max_insns:50 img
  in
  (match run 100 with
  | Cosim.Agree n -> Alcotest.(check int) "clean run agrees to max_insns" 50 n
  | Cosim.Diverged { diffs; _ } ->
    Alcotest.failf "clean run diverged: %s" (String.concat "; " diffs));
  List.iter
    (fun (check_every, after) ->
      match run ~inject:(Fuzz.flags_bug ~after) check_every with
      | Cosim.Diverged { after_insns; diffs; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "check_every %d: caught past %d" check_every after)
          true
          (after_insns >= after && List.exists (fun l -> contains l "flags") diffs)
      | Cosim.Agree n ->
        Alcotest.failf "check_every %d, bug after %d: Agree %d" check_every
          after n)
    [ (100, 1); (32, 40) ]

(* --- report files --- *)

let test_write_reports () =
  let s = injected_run () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "optlsim-fuzz-test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let files = Fuzz.write_reports ~dir s in
  Alcotest.(check int) "one file per divergence"
    (List.length s.Fuzz.s_divergences)
    (List.length files);
  List.iter
    (fun f ->
      let ic = open_in f in
      let n = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) (f ^ " non-empty") true (n > 0);
      Sys.remove f)
    files

let suite =
  [
    Alcotest.test_case "generator space round-trips" `Quick test_generator_roundtrips;
    Alcotest.test_case "boundary encodings" `Quick test_boundary_encodings;
    Alcotest.test_case "generator is deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "parse_classes" `Quick test_parse_classes;
    Alcotest.test_case "shrink isolates one culprit" `Quick test_shrink_single_culprit;
    Alcotest.test_case "shrink keeps interacting pair" `Quick test_shrink_interaction_pair;
    Alcotest.test_case "clean sweep: ooo vs seq" `Quick (clean_sweep "ooo");
    Alcotest.test_case "clean sweep: inorder vs seq" `Quick (clean_sweep "inorder");
    Alcotest.test_case "clean sweep: smt vs seq" `Quick (clean_sweep "smt");
    Alcotest.test_case "injected flags bug caught + shrunk" `Quick test_injected_bug_caught;
    Alcotest.test_case "injected-bug reports deterministic" `Quick test_injected_bug_deterministic;
    Alcotest.test_case "planted spec bug attributed to oracle" `Quick
      test_planted_spec_bug_attributed;
    Alcotest.test_case "golden planted-bug reports" `Quick test_golden_reports;
    Alcotest.test_case "lockstep cosim builds each side once" `Quick
      test_lockstep_builds_once;
    Alcotest.test_case "cosim checks the tail after the last checkpoint" `Quick
      test_cosim_checks_tail;
    Alcotest.test_case "report files" `Quick test_write_reports;
  ]
