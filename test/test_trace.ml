(* Trace subsystem tests: ring wraparound/overwrite semantics, the trace
   filters (class / RIP / cycle window), trigger modes, sink sanity, and an
   end-to-end OOO run checking that the captured window reconstructs
   exactly what the counter tree says happened — commit events equal to
   ooo.commit.insns, and a mispredicted branch visible with its annulled
   wrong-path uops. *)

open Ptl_util
open Ptl_isa
module Trace = Ptl_trace.Trace
module Machine = Ptl_arch.Machine
module Ooo = Ptl_ooo.Ooo_core
module Config = Ptl_ooo.Config
module Stats = Ptl_stats.Statstree

(* Every test must leave the global trace disarmed, or later suites would
   capture events into a stale configuration. *)
let with_trace f =
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

let with_temp_file f =
  let path = Filename.temp_file "trace_test" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The captured window, oldest first, as (cycle, kind name) pairs read
   back through the CSV sink. *)
let window () =
  with_temp_file (fun path ->
      let oc = open_out path in
      Trace.dump_csv oc;
      close_out oc;
      match String.split_on_char '\n' (String.trim (read_file path)) with
      | [] | [ _ ] -> []
      | _header :: rows ->
        List.map
          (fun row ->
            match String.split_on_char ',' row with
            | cycle :: kind :: _ -> (int_of_string cycle, kind)
            | _ -> Alcotest.failf "malformed csv row %S" row)
          rows)

let kinds () = List.map snd (window ())
let count_kind k = List.length (List.filter (String.equal k) (kinds ()))

(* ---------- ring overwrite semantics ---------- *)

let test_ring_push_overwrite () =
  let r = Ring.create 4 0 in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "no overwrite at %d" i)
      false
      (Ring.push_overwrite r i)
  done;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  (* pushing into a full ring drops the oldest *)
  Alcotest.(check bool) "overwrites" true (Ring.push_overwrite r 5);
  Alcotest.(check (list int)) "oldest dropped" [ 2; 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check bool) "overwrites again" true (Ring.push_overwrite r 6);
  Alcotest.(check (list int)) "window slides" [ 3; 4; 5; 6 ] (Ring.to_list r);
  Alcotest.(check int) "length stays at capacity" 4 (Ring.length r)

let test_ring_overwrite_wraparound_many () =
  let cap = 7 in
  let r = Ring.create cap 0 in
  for i = 1 to 1000 do
    ignore (Ring.push_overwrite r i)
  done;
  (* the window is always the [cap] most recent values, in order *)
  Alcotest.(check (list int))
    "last cap survive"
    [ 994; 995; 996; 997; 998; 999; 1000 ]
    (Ring.to_list r);
  (* pop interoperates with overwrite: oldest first *)
  Alcotest.(check int) "pop oldest" 994 (Ring.pop r);
  ignore (Ring.push_overwrite r 1001);
  Alcotest.(check int) "refill after pop" cap (Ring.length r)

let test_ring_overwrite_mixed_ops () =
  let r = Ring.create 3 0 in
  ignore (Ring.push_overwrite r 1);
  ignore (Ring.push_overwrite r 2);
  Alcotest.(check int) "pop" 1 (Ring.pop r);
  ignore (Ring.push_overwrite r 3);
  ignore (Ring.push_overwrite r 4);
  (* now full with [2;3;4]; overwrite rotates through a non-zero head *)
  Alcotest.(check bool) "overwrite rotated" true (Ring.push_overwrite r 5);
  Alcotest.(check (list int)) "rotated window" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "get oldest" 3 (Ring.get r 0);
  Alcotest.(check int) "get youngest" 5 (Ring.get r 2)

(* ---------- trace capture, filters, trigger ---------- *)

let test_trace_capture_and_wrap () =
  with_trace (fun () ->
      Trace.configure ~capacity:8 ();
      Alcotest.(check bool) "armed" true !Trace.on;
      for c = 1 to 20 do
        Trace.set_cycle c;
        Trace.emit ~uuid:c Trace.Issue
      done;
      Alcotest.(check int) "window holds capacity" 8 (Trace.length ());
      Alcotest.(check int) "captured counts all" 20 (Trace.captured ());
      Alcotest.(check int) "overwritten counts lost" 12 (Trace.overwritten ());
      let evs = window () in
      Alcotest.(check int) "oldest surviving cycle" 13 (fst (List.hd evs));
      Alcotest.(check int) "youngest cycle" 20 (fst (List.nth evs 7)))

let test_trace_class_filter () =
  with_trace (fun () ->
      Trace.configure ~classes:[ Trace.Retire; Trace.Tlb ] ();
      Trace.set_cycle 1;
      Trace.emit Trace.Issue;  (* pipe: filtered out *)
      Trace.emit Trace.Cache_miss;  (* mem: filtered out *)
      Trace.emit Trace.Commit;
      Trace.emit Trace.Tlb_miss;
      Trace.emit Trace.Commit_uop;
      Alcotest.(check int) "only selected classes" 3 (Trace.length ());
      Alcotest.(check (list string)) "no pipe or mem events"
        [ "commit"; "tlb-miss"; "commit-uop" ] (kinds ()))

let test_trace_parse_classes () =
  Alcotest.(check int) "all by default" (List.length Trace.all_classes)
    (List.length (Trace.parse_classes ""));
  Alcotest.(check bool) "pipe,commit" true
    (Trace.parse_classes "pipe,commit" = [ Trace.Pipe; Trace.Retire ]);
  Alcotest.(check bool) "rejects junk" true
    (try
       ignore (Trace.parse_classes "pipe,bogus");
       false
     with Invalid_argument _ -> true)

let test_trace_rip_filter () =
  with_trace (fun () ->
      Trace.configure ~rip:0x400100L ();
      Trace.set_cycle 1;
      Trace.emit ~rip:0x400100L Trace.Issue;
      Trace.emit ~rip:0x400108L Trace.Issue;
      Trace.emit ~rip:0x400100L Trace.Commit;
      Alcotest.(check int) "only matching rip" 2 (Trace.length ()))

let test_trace_cycle_window () =
  with_trace (fun () ->
      Trace.configure ~start_cycle:10 ~stop_cycle:20 ();
      for c = 1 to 30 do
        Trace.set_cycle c;
        Trace.emit Trace.Issue
      done;
      (* cycles 10..20 inclusive *)
      Alcotest.(check int) "window 10..20" 11 (Trace.length ());
      Alcotest.(check int) "first at start" 10 (fst (List.hd (window ()))))

let test_trace_trigger_mispredict () =
  with_trace (fun () ->
      Trace.configure ~trigger:Trace.On_mispredict ();
      Trace.set_cycle 1;
      Trace.emit Trace.Issue;
      Trace.emit Trace.Commit;
      Alcotest.(check int) "nothing before trigger" 0 (Trace.length ());
      Trace.set_cycle 2;
      Trace.emit Trace.Mispredict;  (* fires the trigger AND is recorded *)
      Trace.emit Trace.Annul;
      Trace.set_cycle 3;
      Trace.emit Trace.Fetch;
      Alcotest.(check int) "mispredict onward" 3 (Trace.length ());
      Alcotest.(check string) "first recorded is the mispredict" "mispredict"
        (List.hd (kinds ())))

let test_trace_disabled_emits_nothing () =
  with_trace (fun () ->
      Trace.configure ();
      Trace.disable ();
      Trace.emit Trace.Issue;
      Alcotest.(check int) "no capture when off" 0 (Trace.length ()))

let test_trace_clear_rearms_trigger () =
  with_trace (fun () ->
      Trace.configure ~trigger:Trace.On_mispredict ();
      Trace.set_cycle 1;
      Trace.emit Trace.Mispredict;
      Trace.emit Trace.Issue;
      Alcotest.(check int) "captured" 2 (Trace.length ());
      Trace.clear ();
      Alcotest.(check int) "cleared" 0 (Trace.length ());
      Trace.emit Trace.Issue;
      Alcotest.(check int) "trigger re-armed" 0 (Trace.length ()))

(* ---------- sinks ---------- *)


let test_trace_chrome_sink () =
  with_trace (fun () ->
      Trace.configure ();
      Trace.set_cycle 5;
      Trace.emit ~core:1 ~uuid:7 ~rip:0x400000L ~tag:"ooo" Trace.Commit;
      Trace.emit ~core:1 Trace.Cache_miss;
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.dump_chrome oc;
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "has traceEvents" true
            (contains ~sub:"\"traceEvents\"" s);
          Alcotest.(check bool) "has commit event" true
            (contains ~sub:"\"commit:ooo\"" s);
          Alcotest.(check bool) "has metadata names" true
            (contains ~sub:"thread_name" s);
          (* structural sanity: braces and brackets balance *)
          let bal open_c close_c =
            String.fold_left
              (fun acc c ->
                if c = open_c then acc + 1
                else if c = close_c then acc - 1
                else acc)
              0 s
          in
          Alcotest.(check int) "braces balance" 0 (bal '{' '}');
          Alcotest.(check int) "brackets balance" 0 (bal '[' ']')))

let test_trace_csv_sink () =
  with_trace (fun () ->
      Trace.configure ();
      Trace.set_cycle 9;
      Trace.emit ~uuid:3 ~rip:0x1234L Trace.Issue;
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.dump_csv oc;
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "header" true
            (contains ~sub:"cycle,kind,core" s);
          Alcotest.(check bool) "row" true (contains ~sub:"9,issue,0,0,3" s)))

(* An SMT window must group each hardware thread's events into its own
   contiguous tid band with labeled tracks. *)
let test_trace_chrome_smt_tracks () =
  with_trace (fun () ->
      Trace.configure ();
      Trace.set_cycle 3;
      Trace.emit ~thread:0 ~uuid:1 Trace.Fetch;
      Trace.emit ~thread:1 ~uuid:2 Trace.Fetch;
      Trace.emit ~thread:1 ~uuid:2 ~tag:"smt" Trace.Commit;
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.dump_chrome oc;
          close_out oc;
          let s = read_file path in
          (* thread 0 keeps the plain stage track *)
          Alcotest.(check bool) "t0 fetch track" true
            (contains ~sub:"{\"name\":\"fetch\"}" s);
          (* thread 1's tracks are labeled and live at tid 32+stage *)
          Alcotest.(check bool) "t1 fetch track" true
            (contains ~sub:"{\"name\":\"t1:fetch\"}" s);
          Alcotest.(check bool) "t1 commit track" true
            (contains ~sub:"{\"name\":\"t1:commit\"}" s);
          Alcotest.(check bool) "t1 fetch tid" true
            (contains ~sub:"\"tid\":32," s);
          Alcotest.(check bool) "t1 commit tid" true
            (contains ~sub:"\"tid\":43," s)))

(* ---------- incremental streaming sinks ---------- *)

let test_trace_stream_text_csv () =
  with_trace (fun () ->
      Trace.configure ();
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.stream_to Trace.Stream_csv oc;
          Trace.set_cycle 4;
          Trace.emit ~uuid:11 ~rip:0xbeefL Trace.Issue;
          (* the event is on disk before the run ends *)
          Trace.stream_stop ();
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "csv header" true
            (contains ~sub:"cycle,kind,core" s);
          Alcotest.(check bool) "csv row" true
            (contains ~sub:"4,issue,0,0,11" s);
          (* detached: later events no longer reach the closed channel *)
          Trace.emit ~uuid:12 Trace.Issue))

let test_trace_stream_chrome () =
  with_trace (fun () ->
      Trace.configure ();
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.stream_to Trace.Stream_chrome oc;
          Trace.set_cycle 1;
          Trace.emit ~thread:1 ~uuid:1 Trace.Fetch;
          Trace.emit ~uuid:2 ~tag:"ooo" Trace.Commit;
          (* disable () must finalize the stream so the JSON is valid *)
          Trace.disable ();
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "has traceEvents" true
            (contains ~sub:"\"traceEvents\"" s);
          Alcotest.(check bool) "lazy track metadata" true
            (contains ~sub:"{\"name\":\"t1:fetch\"}" s);
          Alcotest.(check bool) "has commit event" true
            (contains ~sub:"\"commit:ooo\"" s);
          let bal open_c close_c =
            String.fold_left
              (fun acc c ->
                if c = open_c then acc + 1
                else if c = close_c then acc - 1
                else acc)
              0 s
          in
          Alcotest.(check int) "braces balance" 0 (bal '{' '}');
          Alcotest.(check int) "brackets balance" 0 (bal '[' ']')))

(* events accepted while streaming also land in the ring (stream is a
   tee, not a diversion), and events rejected by filters reach neither *)
let test_trace_stream_tee_and_filters () =
  with_trace (fun () ->
      Trace.configure ~classes:[ Trace.Retire ] ();
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.stream_to Trace.Stream_text oc;
          Trace.set_cycle 2;
          Trace.emit Trace.Fetch;
          (* filtered: pipe class *)
          Trace.emit ~uuid:5 Trace.Commit;
          Trace.stream_stop ();
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "commit streamed" true (contains ~sub:"commit" s);
          Alcotest.(check bool) "fetch filtered" false (contains ~sub:"fetch" s);
          Alcotest.(check int) "ring got the same event" 1 (Trace.length ())))

(* regression: a run dying on the Sim_failure exit path must still leave
   a complete stream. The driver finalizes via stream_stop before
   exiting; the on_stop hook owns channel teardown and must run exactly
   once, after the format footer, however the sink is torn down. *)
let test_trace_stream_finalized_on_failure () =
  with_trace (fun () ->
      Trace.configure ();
      with_temp_file (fun path ->
          let oc = open_out path in
          let stops = ref 0 in
          Trace.stream_to
            ~on_stop:(fun () ->
              incr stops;
              close_out oc)
            Trace.Stream_chrome oc;
          Trace.set_cycle 7;
          Trace.emit ~uuid:1 Trace.Fetch;
          Trace.emit ~uuid:1 ~tag:"ooo" Trace.Commit;
          (* the simulated crash: an exception unwinds out of the drive
             loop and the driver finalizes the sink before exiting *)
          (try raise Exit with Exit -> Trace.stream_stop ());
          Alcotest.(check int) "on_stop ran once" 1 !stops;
          (* detached: an event now must not reach the closed channel *)
          Trace.emit ~uuid:2 Trace.Fetch;
          (* idempotent: a later stream_stop/disable must not re-run it *)
          Trace.stream_stop ();
          Trace.disable ();
          Alcotest.(check int) "on_stop not re-run" 1 !stops;
          let s = read_file path in
          Alcotest.(check bool) "chrome footer written" true
            (contains ~sub:"\"displayTimeUnit\"" s);
          let bal open_c close_c =
            String.fold_left
              (fun acc c ->
                if c = open_c then acc + 1
                else if c = close_c then acc - 1
                else acc)
              0 s
          in
          Alcotest.(check int) "braces balance" 0 (bal '{' '}');
          Alcotest.(check int) "brackets balance" 0 (bal '[' ']')))

(* ---------- the sampling trigger ---------- *)

let test_trace_sample_trigger () =
  with_trace (fun () ->
      Trace.configure ~trigger:Trace.On_sample ();
      Trace.set_cycle 1;
      Trace.emit Trace.Fetch;
      Alcotest.(check int) "closed before first interval" 0 (Trace.length ());
      (* a mispredict must NOT open an On_sample trigger *)
      Trace.emit Trace.Mispredict;
      Alcotest.(check int) "mispredict does not open it" 0 (Trace.length ());
      Trace.sample_boundary ();
      Trace.emit Trace.Fetch;
      Alcotest.(check int) "open after sample_boundary" 1 (Trace.length ());
      (* latches open across the fast-forward gap to the next interval *)
      Trace.set_cycle 1000;
      Trace.emit Trace.Commit;
      Alcotest.(check int) "stays open" 2 (Trace.length ()))

(* ---------- end to end on the OOO core ---------- *)

let reg = Regs.gpr_of_name

let build ?(base = 0x40_0000L) items =
  let a = Asm.create ~base () in
  List.iter
    (fun it ->
      match it with `I insn -> Asm.ins a insn | `L l -> Asm.label a l | `J f -> f a)
    items;
  Asm.assemble a

let i x = `I x

(* The mispredict-heavy LCG program from the OOO tests: data-dependent
   branches guarantee real mispredictions to reconstruct. *)
let lcg_program =
  [ i (Insn.Mov (W64.B8, Insn.Reg (reg "rax"), Insn.Imm 0L));
    i (Insn.Mov (W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 12345L));
    i (Insn.Mov (W64.B8, Insn.Reg (reg "rcx"), Insn.Imm 200L));
    `L "loop";
    i (Insn.Movabs (reg "rdx", 1103515245L));
    i (Insn.Imul2 (W64.B8, reg "rbx", Insn.Reg (reg "rdx")));
    i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rbx"), Insn.Imm 12345L));
    i (Insn.Bittest (Insn.Bt, W64.B8, Insn.Reg (reg "rbx"), Insn.Bimm 4));
    `J (fun a -> Asm.jcc a Flags.AE "skip");
    i (Insn.Alu (Insn.Add, W64.B8, Insn.Reg (reg "rax"), Insn.Imm 1L));
    `L "skip";
    i (Insn.Unary (Insn.Dec, W64.B8, Insn.Reg (reg "rcx")));
    `J (fun a -> Asm.jcc a Flags.NE "loop");
    i Insn.Hlt ]

let test_trace_ooo_end_to_end () =
  with_trace (fun () ->
      Trace.configure ~capacity:(1 lsl 18) ();
      let img = build lcg_program in
      let m = Machine.create img in
      let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
      ignore (Ooo.run core ~max_cycles:2_000_000);
      let stats = m.Machine.env.Ptl_arch.Env.stats in
      Alcotest.(check int) "nothing lost" 0 (Trace.overwritten ());
      (* every committed x86 instruction appears exactly once *)
      Alcotest.(check int) "commit events match counter"
        (Stats.get stats "ooo.commit.insns")
        (Trace.commits ~tag:"ooo" ());
      (* the counter tree says mispredicts happened; the trace must show
         them, each with annulled wrong-path work and a fetch redirect *)
      let mispredicts = count_kind "mispredict" in
      Alcotest.(check bool) "mispredicts captured" true (mispredicts > 0);
      (* Mispredict events fire at branch *resolution*; the counter counts
         at *commit*. A resolved-mispredicted branch can itself be annulled
         by an older mispredict and never commit, so the trace sees at
         least as many as the counter. *)
      Alcotest.(check bool) "trace sees every counted mispredict" true
        (mispredicts >= Stats.get stats "ooo.commit.mispredicts");
      Alcotest.(check bool) "annuls captured" true
        (count_kind "annul" > 0);
      Alcotest.(check bool) "redirects captured" true
        (count_kind "redirect" > 0);
      (* a mispredicted branch's wrong-path uop is annulled after the
         branch's own event, then the correct path is refetched *)
      let rec after_mispredict = function
        | [] -> []
        | "mispredict" :: rest -> rest
        | _ :: rest -> after_mispredict rest
      in
      let rest = after_mispredict (kinds ()) in
      Alcotest.(check bool) "annul follows mispredict" true (List.mem "annul" rest);
      Alcotest.(check bool) "refetch follows mispredict" true (List.mem "fetch" rest);
      (* timeline renderer agrees: some lane shows the mispredict marker *)
      with_temp_file (fun path ->
          let oc = open_out path in
          Trace.render_timeline ~limit:100000 oc;
          close_out oc;
          let s = read_file path in
          Alcotest.(check bool) "timeline shows mispredict" true
            (contains ~sub:"mispredict" s);
          Alcotest.(check bool) "timeline shows annul" true
            (contains ~sub:"annul@" s)))

let test_trace_zero_cost_shape () =
  (* With tracing off, emit is never even called (call sites check
     [!Trace.on]); this guards the invariant that disable really stops
     capture even if someone calls emit directly. *)
  with_trace (fun () ->
      Trace.configure ~capacity:16 ();  (* fresh, empty ring *)
      Trace.disable ();
      let img = build lcg_program in
      let m = Machine.create img in
      let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
      ignore (Ooo.run core ~max_cycles:2_000_000);
      Alcotest.(check int) "no events captured" 0 (Trace.length ()))

let suite =
  [
    Alcotest.test_case "ring push_overwrite basics" `Quick test_ring_push_overwrite;
    Alcotest.test_case "ring overwrite wraparound" `Quick
      test_ring_overwrite_wraparound_many;
    Alcotest.test_case "ring overwrite mixed ops" `Quick test_ring_overwrite_mixed_ops;
    Alcotest.test_case "trace capture and wrap" `Quick test_trace_capture_and_wrap;
    Alcotest.test_case "trace class filter" `Quick test_trace_class_filter;
    Alcotest.test_case "trace parse classes" `Quick test_trace_parse_classes;
    Alcotest.test_case "trace rip filter" `Quick test_trace_rip_filter;
    Alcotest.test_case "trace cycle window" `Quick test_trace_cycle_window;
    Alcotest.test_case "trace mispredict trigger" `Quick test_trace_trigger_mispredict;
    Alcotest.test_case "trace disabled captures nothing" `Quick
      test_trace_disabled_emits_nothing;
    Alcotest.test_case "trace clear re-arms trigger" `Quick
      test_trace_clear_rearms_trigger;
    Alcotest.test_case "trace chrome sink" `Quick test_trace_chrome_sink;
    Alcotest.test_case "trace csv sink" `Quick test_trace_csv_sink;
    Alcotest.test_case "trace chrome smt tracks" `Quick
      test_trace_chrome_smt_tracks;
    Alcotest.test_case "trace stream csv" `Quick test_trace_stream_text_csv;
    Alcotest.test_case "trace stream chrome" `Quick test_trace_stream_chrome;
    Alcotest.test_case "trace stream tee + filters" `Quick
      test_trace_stream_tee_and_filters;
    Alcotest.test_case "trace stream finalized on failure" `Quick
      test_trace_stream_finalized_on_failure;
    Alcotest.test_case "trace sample trigger" `Quick test_trace_sample_trigger;
    Alcotest.test_case "trace ooo end to end" `Quick test_trace_ooo_end_to_end;
    Alcotest.test_case "trace off captures nothing end to end" `Quick
      test_trace_zero_cost_shape;
  ]
