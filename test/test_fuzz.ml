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

(* --- the oracle's lockstep pass stops at its own bound: on a loop far
   longer than [max_insns], Cross.check and a ride on a co-simulation
   whose model overruns the bound both compare exactly [max_insns]
   units --- *)

let test_cross_stops_at_bound () =
  let module G = Ptl_workloads.Gasm in
  let g = G.create () in
  G.lii g G.rcx 1_000;
  G.label g "top";
  G.addi g G.rbx 1;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let img = G.assemble g in
  List.iter
    (fun max_insns ->
      let tag = Printf.sprintf "max_insns %d: " max_insns in
      Alcotest.(check bool) (tag ^ "Cross.check") true
        (Ptl_oracle.Cross.check ~max_insns img = Ptl_oracle.Cross.Agree max_insns);
      let rider = ref None in
      let observe m seq =
        let r = Ptl_oracle.Cross.ride ~max_insns m seq in
        rider := Some r;
        Ptl_oracle.Cross.observe r
      in
      match (Cosim.validate ~check_every:7 ~observe ~max_insns img, !rider) with
      | Cosim.Agree _, Some r ->
        Alcotest.(check bool) (tag ^ "ride") true
          (Ptl_oracle.Cross.finish_ride r = Ptl_oracle.Cross.Agree max_insns)
      | _ -> Alcotest.failf "%sco-simulation did not agree" tag)
    [ 0; 1; 50; 301 ]

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

(* --- the one-pass screen is exact: Harness.run folds the oracle into
   the co-simulation's reference core, and must decide, shrink and
   report exactly as the two-pass screen it replaced (Cosim.validate,
   then Cross.check on a machine of its own), the way the ledger's
   traced fuzz path still runs it. Part one compares the two screens'
   results program by program; part two compares Harness.run's summary
   against the two-pass verdicts, and its summary text (counts plus
   every rendered report) against digests the two-pass harness
   produced for the same runs. --- *)

module Cross = Ptl_oracle.Cross
module Spec = Ptl_spec.Spec
module Guard = Ptl_guard.Guard
module Config = Ptl_ooo.Config

type screen_case = {
  sc_name : string;
  sc_core : string;
  sc_inject : (Ptl_arch.Context.t -> unit) option;
  sc_guard : bool;
  sc_table : Spec.table;
  sc_classes : Fuzzgen.cls list;
  sc_len : int;
  sc_iters : int;
  (* summary-text digest of the two-pass harness, seeds 1 to 4 *)
  sc_digests : string list;
}

let spec_bug_table =
  Spec.drop_flag_write ~key:"sub" ~mask:Flags.cf_mask Spec.table

let screen_cases =
  let case ?inject ?(guard = false) ?(table = Spec.table)
      ?(classes = Fuzzgen.all_classes) ?(len = Fuzz.default_len) name core
      iters digests =
    { sc_name = name; sc_core = core; sc_inject = inject; sc_guard = guard;
      sc_table = table; sc_classes = classes; sc_len = len; sc_iters = iters;
      sc_digests = digests }
  in
  [
    case "clean" "ooo" 50
      [ "cddb14d0e49a340bc3b4cc1ce05cec32"; "f35534443c26ce84845964a592233ed6";
        "b44e8e3235764b24f6902305aa2ca25d"; "01e83385eebc9ee4134458924e4d9258" ];
    case "inject" "ooo" 4 ~inject:(Fuzz.flags_bug ~after:3)
      [ "bb530524c334b7ec7f6e2d1d8c022eca"; "995d17b8851bf1cee6902e96236313af";
        "3b9c2a993773570b596c7ebfd6db5071"; "bb5d34f11dd8039e21034a3b2381b2ae" ];
    case "spec bug" "inorder" 30 ~table:spec_bug_table
      ~classes:[ Fuzzgen.Alu ] ~len:10
      [ "30f81c853e92e6959f38478f5a1281d6"; "63ff6751facf71a9f38181d971d55ca6";
        "6be7bac7404538abdf2a47698e0dd273"; "c195f9e5d1b70a8c93312740f8bcf3e4" ];
    case "guard" "ooo" 50 ~guard:true
      [ "cddb14d0e49a340bc3b4cc1ce05cec32"; "f35534443c26ce84845964a592233ed6";
        "b44e8e3235764b24f6902305aa2ca25d"; "01e83385eebc9ee4134458924e4d9258" ];
    case "guard inject" "inorder" 3 ~guard:true
      ~inject:(Fuzz.flags_bug ~after:4)
      [ "6a58c38a1f95a740682187eee208508b"; "c22e44453dfc1781e3311cd145c78c64";
        "51b23ab3cf739617bfe6e9b09e2ef78f"; "9a46a402f4a1b364ba7368f619de897e" ];
  ]

let summary_text (s : Fuzz.summary) =
  Printf.sprintf "seed %d core %s iters %d gen %d checked %d unsupported %d\n"
    s.Fuzz.s_seed s.Fuzz.s_core s.Fuzz.s_iters s.Fuzz.s_gen_insns
    s.Fuzz.s_oracle_checked s.Fuzz.s_oracle_unsupported
  ^ String.concat "" (List.map (fun d -> d.Fuzz.d_report) s.Fuzz.s_divergences)

(* The harness's per-iteration seed stream, replayed from outside. *)
let iter_seeds ~seed ~iters =
  let master = Ptl_util.Rng.create seed in
  Array.init iters (fun _ ->
      Int64.to_int
        (Int64.logand (Ptl_util.Rng.next64 master) 0x3FFF_FFFF_FFFF_FFFFL))

(* Both screens of one program: (co-simulation, oracle) results of the
   two-pass screen, and of the one-pass screen when its ride finished
   (it does whenever the co-simulation agrees). *)
let screens c ~sink img ~max_insns =
  let wrap =
    if c.sc_guard then
      Some
        (fun env ctx inst ->
          Guard.wrap
            ~config:{ Guard.default_config with Guard.degrade = false }
            ~out:sink ~env ~ctx inst)
    else None
  in
  let validate ?observe () =
    Cosim.validate ~config:Config.tiny ~core:c.sc_core ?inject:c.sc_inject ?wrap
      ~budget:Fuzz.step_budget ~mem_ranges:Fuzz.mem_ranges
      ~check_every:Fuzz.default_check_every ?observe ~max_insns img
  in
  let two_pass =
    let t = validate () in
    (t, Cross.check ~table:c.sc_table ~max_insns ~mem_ranges:Fuzz.mem_ranges img)
  in
  let rider = ref None in
  let t =
    validate
      ~observe:(fun m seq ->
        let r =
          Cross.ride ~table:c.sc_table ~max_insns ~mem_ranges:Fuzz.mem_ranges m seq
        in
        rider := Some r;
        Cross.observe r)
      ()
  in
  let one_pass =
    match (t, !rider) with
    | Cosim.Agree _, Some r -> (t, Some (Cross.finish_ride r))
    | _ -> (t, None)
  in
  (two_pass, one_pass)

let test_one_pass_matches_two_pass () =
  let sink = open_out "/dev/null" in
  Fun.protect ~finally:(fun () -> close_out sink) @@ fun () ->
  List.iter
    (fun c ->
      List.iteri
        (fun k seed ->
          let tag = Printf.sprintf "%s, seed %d: " c.sc_name seed in
          let gen = ref 0 and unsup = ref 0 and diverging = ref [] in
          Array.iteri
            (fun iter iter_seed ->
              let prog =
                Fuzzgen.generate (Ptl_util.Rng.create iter_seed)
                  ~classes:c.sc_classes ~len:c.sc_len
              in
              let n = Fuzzgen.insn_count prog in
              gen := !gen + n;
              let img = Fuzzgen.build prog in
              (* the harness's bound, and one that stops most programs
                 early, where the model can overrun the last checkpoint
                 and the ride must stop at its own bound *)
              let same max_insns =
                let (t2, o2), (t1, o1) = screens c ~sink img ~max_insns in
                let itag =
                  Printf.sprintf "%siteration %d, max_insns %d: " tag iter max_insns
                in
                if t1 <> t2 then Alcotest.failf "%sco-simulation results differ" itag;
                (match o1 with
                | Some o1 when o1 <> o2 -> Alcotest.failf "%soracle results differ" itag
                | Some _ -> ()
                | None ->
                  Alcotest.(check bool) (itag ^ "ride ends only on divergence") true
                    (match t2 with Cosim.Diverged _ -> true | Cosim.Agree _ -> false));
                (t2, o2)
              in
              ignore (same (1 + (iter mod 13)));
              let t2, o2 = same ((n * 64) + 256) in
              let oracle_div =
                match o2 with
                | Cross.Diverged _ -> true
                | Cross.Agree _ -> false
                | Cross.Unsupported _ ->
                  incr unsup;
                  false
              in
              if oracle_div || match t2 with Cosim.Diverged _ -> true | _ -> false
              then diverging := iter :: !diverging)
            (iter_seeds ~seed ~iters:c.sc_iters);
          let s =
            Fuzz.run ~core:c.sc_core ?inject:c.sc_inject
              ?guard:(if c.sc_guard then Some Guard.default_config else None)
              ~table:c.sc_table ~classes:c.sc_classes ~len:c.sc_len ~seed
              ~iters:c.sc_iters ()
          in
          Alcotest.(check int) (tag ^ "instructions generated") !gen s.Fuzz.s_gen_insns;
          Alcotest.(check int) (tag ^ "programs cross-checked") c.sc_iters
            s.Fuzz.s_oracle_checked;
          Alcotest.(check int) (tag ^ "unsupported") !unsup s.Fuzz.s_oracle_unsupported;
          Alcotest.(check (list int)) (tag ^ "diverging iterations")
            (List.rev !diverging)
            (List.map (fun d -> d.Fuzz.d_iter) s.Fuzz.s_divergences);
          Alcotest.(check string) (tag ^ "summary and reports")
            (List.nth c.sc_digests k)
            (Digest.to_hex (Digest.string (summary_text s))))
        [ 1; 2; 3; 4 ])
    screen_cases

(* --- the fast memory paths agree with their per-quad and byte-wise
   references: the page-wise machine compare and the oracle's range
   compare return the per-quad diff lists (0, 1 or many differing
   quads, unaligned and page-straddling ranges, a pending journal), an
   unmapped oracle byte raises the same fault, and page-wise
   [load_blob] leaves the frames, the dirty set, the allocation count
   and the page-table epoch a byte-wise load leaves. --- *)

module Machine = Ptl_arch.Machine
module Pm = Ptl_mem.Phys_mem

let blank_image =
  { Asm.img_base = 0x40_0000L; code = String.make 64 '\x90'; symbols = Hashtbl.create 1 }

let heap_va off = Int64.add Machine.heap_base (Int64.of_int off)

(* Random ranges inside the first 8 heap pages: unaligned bases, lengths
   up to three pages, so most ranges straddle pages and some quads
   straddle page boundaries. *)
let random_ranges rng =
  List.init
    (1 + Ptl_util.Rng.int rng 2)
    (fun _ ->
      (heap_va (Ptl_util.Rng.int rng (4 * Pm.page_size)),
       Ptl_util.Rng.int rng (3 * Pm.page_size)))

(* [n] random byte writes inside [ranges]. *)
let random_spots rng ranges n =
  let ranges = Array.of_list ranges in
  List.init n (fun _ ->
      let base, len = ranges.(Ptl_util.Rng.int rng (Array.length ranges)) in
      (Int64.add base (Int64.of_int (Ptl_util.Rng.int rng (max 1 len))),
       1 + Ptl_util.Rng.int rng 255))

let diff_counts = [| 0; 1; 3; 9; 40 |]

let prop_machine_compare =
  QCheck.Test.make ~name:"page-wise machine compare = per-quad compare" ~count:120
    QCheck.int (fun seed ->
      let rng = Ptl_util.Rng.create seed in
      let a = Machine.create blank_image and b = Machine.create blank_image in
      let ranges = random_ranges rng in
      (* shared contents, then differences on one side *)
      List.iter
        (fun (va, v) ->
          List.iter
            (fun m -> Machine.write_mem m ~vaddr:va ~size:W64.B1 ~value:(Int64.of_int v))
            [ a; b ])
        (random_spots rng ranges 50);
      List.iter
        (fun (va, v) -> Machine.write_mem b ~vaddr:va ~size:W64.B1 ~value:(Int64.of_int v))
        (random_spots rng ranges (Ptl_util.Rng.choose rng diff_counts));
      Machine.mem_diffs ranges a b
      = Machine.quad_diffs ranges (Machine.quad_reader a) (Machine.quad_reader b))

(* An oracle state over [blank_image]'s address space, whose backing also
   covers the first two heap pages, with committed writes and a pending
   journal (rewriting some of the same bytes) from [rng]. *)
let random_oracle rng ranges ~valid =
  let backing va =
    let off = Int64.sub va Machine.heap_base in
    if off >= 0L && off < Int64.of_int (2 * Pm.page_size) then
      Some (Int64.to_int off * 7 land 0xFF)
    else None
  in
  let st =
    Spec.make_state ~rip:0L ~flags:0 ~mode:Spec.Kernel ~backing ~valid ()
  in
  let pend (va, v) = st.Spec.journal <- (va, v) :: st.Spec.journal in
  List.iter pend (random_spots rng ranges 40);
  Spec.commit_journal st;
  let spots = random_spots rng ranges 20 in
  List.iter pend spots;
  List.iter (fun (va, v) -> pend (va, v lxor 0x5A)) spots;
  st

(* The machine the oracle is compared against: the backing, then
   [Machine.create]'s zeroes, with some of the oracle's bytes copied. *)
let machine_like rng st ranges =
  let m = Machine.create blank_image in
  for i = 0 to (2 * Pm.page_size) - 1 do
    Machine.write_mem m ~vaddr:(heap_va i) ~size:W64.B1
      ~value:(Int64.of_int (i * 7 land 0xFF))
  done;
  List.iter
    (fun (va, _) ->
      match Spec.read_byte st va with
      | v -> Machine.write_mem m ~vaddr:va ~size:W64.B1 ~value:(Int64.of_int v)
      | exception Spec.Spec_fault _ -> ())
    (random_spots rng ranges (Ptl_util.Rng.choose rng [| 0; 30; 300 |]));
  m

let oracle_mem_lines st m ranges =
  try
    Ok
      (List.filter
         (fun l -> String.length l > 4 && String.sub l 0 4 = "mem[")
         (Cross.final_diffs ~mem_ranges:ranges st m))
  with Spec.Spec_fault f -> Error f

let reference_mem_lines st m ranges =
  try
    Ok
      (List.map
         (fun (va, a, b) ->
           Printf.sprintf "mem[%Lx]: oracle %016Lx vs core %016Lx" va a b)
         (Machine.quad_diffs ranges (Spec.read_mem st W64.B8) (Machine.quad_reader m)))
  with Spec.Spec_fault f -> Error f

let prop_oracle_compare =
  QCheck.Test.make ~name:"oracle range compare = per-quad compare" ~count:120
    QCheck.int (fun seed ->
      let rng = Ptl_util.Rng.create seed in
      let ranges = random_ranges rng in
      (* every other seed leaves a hole in the oracle's mapped space *)
      let hole = heap_va (Ptl_util.Rng.int rng (6 * Pm.page_size)) in
      let valid =
        if seed land 1 = 0 then fun _ -> true
        else fun va -> va < hole || va >= Int64.add hole 16L
      in
      let st = random_oracle rng ranges ~valid in
      let m = machine_like rng st ranges in
      oracle_mem_lines st m ranges = reference_mem_lines st m ranges)

let test_unmapped_oracle_byte () =
  let rng = Ptl_util.Rng.create 9 in
  let base = heap_va 0xFF3 and len = 40 in
  let ranges = [ (base, len) ] in
  List.iter
    (fun hole_off ->
      let hole = Int64.add base (Int64.of_int hole_off) in
      let st = random_oracle rng ranges ~valid:(fun va -> va <> hole) in
      let fault = Spec.Access_fault { addr = hole; write = false } in
      let tag = Printf.sprintf "hole at +%d: " hole_off in
      (match Spec.read_range st base len with
      | _ -> Alcotest.failf "%sread_range did not fault" tag
      | exception Spec.Spec_fault f ->
        Alcotest.(check bool) (tag ^ "read_range faults as read_byte") true (f = fault));
      let m = machine_like rng st ranges in
      Alcotest.(check bool) (tag ^ "range compare = per-quad compare") true
        (oracle_mem_lines st m ranges = reference_mem_lines st m ranges);
      Alcotest.(check bool) (tag ^ "the compare faults") true
        (oracle_mem_lines st m ranges = Error fault))
    [ 0; 13; len - 1 ]

let prop_read_range =
  QCheck.Test.make ~name:"Spec.read_range = read_byte per byte" ~count:120
    QCheck.int (fun seed ->
      let rng = Ptl_util.Rng.create seed in
      let ranges = random_ranges rng in
      let hole = heap_va (Ptl_util.Rng.int rng (6 * Pm.page_size)) in
      let valid =
        if seed land 1 = 0 then fun _ -> true else fun va -> va <> hole
      in
      let st = random_oracle rng ranges ~valid in
      List.for_all
        (fun (base, len) ->
          let bytewise =
            try
              Ok
                (Bytes.init len (fun i ->
                     Char.chr (Spec.read_byte st (Int64.add base (Int64.of_int i)))))
            with Spec.Spec_fault f -> Error f
          in
          let ranged = try Ok (Spec.read_range st base len) with Spec.Spec_fault f -> Error f in
          bytewise = ranged)
        ranges)

(* [Machine.load_blob] as it was: map, then one probe and write8 a byte. *)
let load_blob_bytewise (m : Machine.t) ~vaddr ~bytes =
  let mem = m.Machine.env.Ptl_arch.Env.mem and cr3 = m.Machine.ctx.Ptl_arch.Context.cr3 in
  let base = Int64.logand vaddr (Int64.lognot (Int64.of_int Pm.page_mask)) in
  let last = Int64.add vaddr (Int64.of_int (max 0 (String.length bytes - 1))) in
  let npages =
    Int64.to_int (Int64.div (Int64.sub last base) (Int64.of_int Pm.page_size)) + 1
  in
  for i = 0 to npages - 1 do
    let va = Int64.add base (Int64.of_int (i * Pm.page_size)) in
    if Ptl_mem.Pagetable.probe mem ~cr3_mfn:cr3 ~vaddr:va = None then
      Ptl_mem.Pagetable.map mem ~cr3_mfn:cr3 ~vaddr:va ~mfn:(Pm.alloc_page mem)
        ~writable:true ~user:true
        ~alloc:(fun () -> Pm.alloc_page mem)
        ()
  done;
  String.iteri
    (fun i c ->
      let va = Int64.add vaddr (Int64.of_int i) in
      match Ptl_mem.Pagetable.probe mem ~cr3_mfn:cr3 ~vaddr:va with
      | Some mfn ->
        Pm.write8 mem
          (Pm.paddr_of_mfn mfn + (Int64.to_int va land Pm.page_mask))
          (Char.code c)
      | None -> assert false)
    bytes

let test_load_blob_pagewise () =
  let rng = Ptl_util.Rng.create 5 in
  let blob n = String.init n (fun _ -> Char.chr (Ptl_util.Rng.int rng 256)) in
  List.iter
    (fun (name, vaddr, bytes) ->
      let mk () =
        let m = Machine.create blank_image in
        (* watch the page-table frames a translation relies on, so a
           page-table write during the load advances the epoch *)
        ignore (Machine.read_mem m ~vaddr:(heap_va 0) ~size:W64.B8);
        Pm.clear_dirty m.Machine.env.Ptl_arch.Env.mem;
        m
      in
      let a = mk () and b = mk () in
      load_blob_bytewise a ~vaddr ~bytes;
      Machine.load_blob b.Machine.env b.Machine.ctx ~vaddr ~bytes ~writable:true
        ~user:true;
      let ma = a.Machine.env.Ptl_arch.Env.mem and mb = b.Machine.env.Ptl_arch.Env.mem in
      Alcotest.(check (list int)) (name ^ ": frame bytes") [] (Pm.diff ma mb);
      Alcotest.(check bool) (name ^ ": dirty set") true (Pm.delta ma = Pm.delta mb);
      Alcotest.(check int) (name ^ ": allocated pages") (Pm.allocated_pages ma)
        (Pm.allocated_pages mb);
      Alcotest.(check int) (name ^ ": page-table epoch") (Pm.pt_epoch ma) (Pm.pt_epoch mb))
    [
      ("empty blob", 0x1000_0000L, "");
      ("unaligned start", 0x1000_0123L, blob 300);
      ("page-straddling", 0x1000_0F80L, blob (Pm.page_size + 500));
      ("already-mapped pages", Int64.add Machine.heap_base 0xFF0L, blob 9000);
      ("code image overlap", 0x40_0020L, blob 5000);
    ]

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
    Alcotest.test_case "oracle pass stops at its bound" `Quick
      test_cross_stops_at_bound;
    Alcotest.test_case "report files" `Quick test_write_reports;
    Alcotest.test_case "one-pass screen = two-pass screen" `Quick
      test_one_pass_matches_two_pass;
    Test_seed.to_alcotest prop_machine_compare;
    Test_seed.to_alcotest prop_oracle_compare;
    Test_seed.to_alcotest prop_read_range;
    Alcotest.test_case "unmapped oracle byte faults as per-quad" `Quick
      test_unmapped_oracle_byte;
    Alcotest.test_case "page-wise load_blob = byte-wise load" `Quick
      test_load_blob_pagewise;
  ]
