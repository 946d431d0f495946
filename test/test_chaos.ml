(* Chaos tests (lib/chaos + its instrumentation in lib/fleet and
   lib/store): schedule parsing and exact-hit firing as pure units,
   then the fault matrix — for every worker-side protocol fault the
   fleet must converge to a result byte-identical to the clean run
   (never silently wrong, never a hang), and store-side faults must
   either fail open (result cache) or surface as explicit quarantine
   (corrupt interval record). *)

module Chaos = Ptl_chaos.Chaos
module Fleet = Ptl_fleet.Fleet
module Store = Ptl_store.Store
module Sample = Ptl_sample.Sample

(* ---- units: schedule spec round-trip, exact-hit firing ---- *)

let test_parse () =
  let spec =
    "kill@work.done:2;drop@work.lease;delay=0.5@work.hello;flip=12@store.write;truncate@work.done;fail@store.result.write"
  in
  (match Chaos.parse spec with
  | Error e -> Alcotest.fail e
  | Ok rules ->
    Alcotest.(check int) "six rules" 6 (List.length rules);
    (* to_string canonicalizes the default :1 hit; the canonical form
       must parse back to the same schedule *)
    (match Chaos.parse (Chaos.to_string rules) with
    | Ok reparsed ->
      Alcotest.(check bool) "round trips" true (rules = reparsed)
    | Error e -> Alcotest.fail ("canonical form does not re-parse: " ^ e)));
  (match Chaos.parse "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty spec must be the empty schedule");
  let bad name s =
    match Chaos.parse s with
    | Error (_ : string) -> ()
    | Ok _ -> Alcotest.fail (name ^ ": accepted a malformed spec")
  in
  bad "unknown action" "boom@work.done";
  bad "no point" "kill";
  bad "empty point" "kill@";
  bad "zero hit" "kill@work.done:0";
  bad "bad delay" "delay=x@work.done";
  bad "bad flip" "flip=-1@store.write"

let test_fire_exact_hit () =
  Chaos.arm (Result.get_ok (Chaos.parse "kill@p:2"));
  Alcotest.(check bool) "first pass clean" true (Chaos.fire "p" = None);
  Alcotest.(check bool) "second pass fires" true
    (Chaos.fire "p" = Some Chaos.Kill);
  Alcotest.(check bool) "third pass clean again" true (Chaos.fire "p" = None);
  Alcotest.(check bool) "other points unaffected" true (Chaos.fire "q" = None);
  Alcotest.(check int) "passes counted" 3 (Chaos.hit_count "p");
  Chaos.disarm ();
  Alcotest.(check bool) "disarmed fires nothing" true (Chaos.fire "p" = None);
  Alcotest.(check int) "counters reset on disarm" 0 (Chaos.hit_count "p")

(* ---- the fault matrix ---- *)

(* One cell: arm [spec], run a faulty worker against a real server
   (kill faults surface as Chaos.Killed — the stand-in for the process
   dying), disarm, drain with a clean worker, and require the merged
   result byte-identical to the clean run with nothing quarantined. *)
type cell = {
  c_spec : string;
  c_killed : bool;  (** the fault must kill the faulty worker *)
  c_requeued : bool;  (** the fault must cost at least one re-queue *)
}

let matrix =
  [
    { c_spec = "kill@work.hello"; c_killed = true; c_requeued = false };
    { c_spec = "kill@work.lease"; c_killed = true; c_requeued = false };
    { c_spec = "kill@work.replay"; c_killed = true; c_requeued = true };
    { c_spec = "kill@work.done"; c_killed = true; c_requeued = true };
    { c_spec = "truncate@work.done"; c_killed = true; c_requeued = true };
    { c_spec = "drop@work.lease"; c_killed = false; c_requeued = false };
    { c_spec = "drop@work.done"; c_killed = false; c_requeued = true };
    { c_spec = "delay=0.2@work.done"; c_killed = false; c_requeued = false };
  ]

let run_cell k cell =
  let cr, _, expected = Lazy.force Test_fleet.captured in
  let dir, sock = Test_fleet.fresh_paths (Printf.sprintf "chaos_%d" k) in
  let store = Test_fleet.make_store ~dir cr in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fleet.serve ~lease_timeout:60.0 ~max_failures:3 ~socket:sock store)
  in
  (match Chaos.parse cell.c_spec with
  | Error e -> Alcotest.fail e
  | Ok rules -> Chaos.arm rules);
  let killed =
    match
      Fleet.work ~retries:50 ~reconnects:0 ~recv_timeout:1.0 ~connect:sock ()
    with
    | Ok (_ : int) | Error (_ : string) -> false
    | exception Chaos.Killed (_ : string) -> true
  in
  Chaos.disarm ();
  Alcotest.(check bool)
    (cell.c_spec ^ ": fault kills the worker iff scheduled to")
    cell.c_killed killed;
  (* a clean worker drains whatever the faulty one left behind; a
     connect failure here means the faulty worker already drained the
     store itself and the server has exited, removing its socket *)
  (match Fleet.work ~retries:3 ~connect:sock () with
  | Ok (_ : int) | Error (_ : string) -> ());
  let sv = Stdlib.Domain.join server in
  Alcotest.(check bool)
    (cell.c_spec ^ ": result byte-identical to the clean run")
    true
    (sv.Fleet.sv_result = expected);
  Alcotest.(check bool) (cell.c_spec ^ ": nothing quarantined") true
    (sv.Fleet.sv_quarantined = []);
  if cell.c_requeued then
    Alcotest.(check bool) (cell.c_spec ^ ": the lost lease was re-queued")
      true
      (sv.Fleet.sv_requeued >= 1)

let test_fault_matrix () = List.iteri run_cell matrix

(* a result-cache write failure must fail open: the replay completes
   with the full, identical result — a cache is never load-bearing *)
let test_result_cache_fails_open () =
  let cr, _, expected = Lazy.force Test_fleet.captured in
  let dir, _ = Test_fleet.fresh_paths "chaos_cache" in
  let store = Test_fleet.make_store ~dir cr in
  (match Chaos.parse "fail@store.result.write:1" with
  | Error e -> Alcotest.fail e
  | Ok rules -> Chaos.arm rules);
  let rp =
    match Fleet.replay ~jobs:1 store with
    | Ok rp -> rp
    | Error e ->
      Chaos.disarm ();
      Alcotest.fail (Store.error_to_string e)
  in
  Chaos.disarm ();
  let count = Array.length cr.Sample.cr_deltas in
  Alcotest.(check int) "everything replayed" count rp.Fleet.rp_replayed;
  Alcotest.(check bool) "nothing quarantined" true (rp.Fleet.rp_quarantined = []);
  Alcotest.(check bool) "result identical despite the cache fault" true
    (rp.Fleet.rp_result = expected)

(* a bit flipped in a record payload after its CRC is computed: the
   store publishes a plausible-looking file whose corruption only the
   read-time CRC can catch — replay must quarantine exactly that
   interval, never fold the damage into the result *)
let test_flipped_record_quarantined () =
  let cr, ivs, _ = Lazy.force Test_fleet.captured in
  let count = Array.length cr.Sample.cr_deltas in
  let dir, _ = Test_fleet.fresh_paths "chaos_flip" in
  (* store.write passes: base is hit 1, interval 0 is hit 2 *)
  (match Chaos.parse "flip=5@store.write:2" with
  | Error e -> Alcotest.fail e
  | Ok rules -> Chaos.arm rules);
  let store = Test_fleet.make_store ~dir cr in
  Chaos.disarm ();
  match Fleet.replay ~jobs:1 store with
  | Error e -> Alcotest.fail (Store.error_to_string e)
  | Ok rp ->
    Alcotest.(check (list int)) "the flipped interval is quarantined" [ 0 ]
      (List.map fst rp.Fleet.rp_quarantined);
    Alcotest.(check int) "survivors replayed" (count - 1) rp.Fleet.rp_replayed;
    Alcotest.(check bool) "degraded result covers exactly the survivors" true
      (rp.Fleet.rp_result = Test_fleet.degraded_expected cr ivs ~poison:[ 0 ])

let suite =
  [
    Alcotest.test_case "schedule spec parses and round-trips" `Quick test_parse;
    Alcotest.test_case "rules fire on their exact hit" `Quick
      test_fire_exact_hit;
    Alcotest.test_case "fault matrix: identical result under every fault"
      `Quick test_fault_matrix;
    Alcotest.test_case "result-cache write failure fails open" `Quick
      test_result_cache_fails_open;
    Alcotest.test_case "flipped record is quarantined, not folded in" `Quick
      test_flipped_record_quarantined;
  ]
