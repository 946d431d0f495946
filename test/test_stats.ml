(* Tests for the PTLstats-style statistics tree, snapshots and time-lapse
   series (the machinery behind the paper's Figures 2 and 3). *)

module S = Ptl_stats.Statstree
module T = Ptl_stats.Timelapse

let test_counter_basics () =
  let t = S.create () in
  let c = S.counter t "ooo.commit.insns" in
  S.incr c;
  S.add c 9;
  Alcotest.(check int) "value" 10 (S.value c);
  Alcotest.(check int) "get by path" 10 (S.get t "ooo.commit.insns");
  Alcotest.(check int) "missing" 0 (S.get t "no.such.counter")

let test_counter_shared () =
  let t = S.create () in
  let a = S.counter t "shared" in
  let b = S.counter t "shared" in
  S.incr a;
  S.incr b;
  Alcotest.(check int) "one underlying counter" 2 (S.value a)

let test_counter_growth () =
  let t = S.create () in
  (* force the internal array to grow past its initial 64 slots *)
  for i = 0 to 199 do
    S.incr (S.counter t (Printf.sprintf "c%d" i))
  done;
  Alcotest.(check int) "all registered" 200 (List.length (S.paths t));
  Alcotest.(check int) "c150" 1 (S.get t "c150")

let test_snapshot_delta () =
  let t = S.create () in
  let c = S.counter t "x" in
  S.add c 5;
  let s1 = S.snapshot t ~cycle:100 in
  S.add c 7;
  let s2 = S.snapshot t ~cycle:200 in
  Alcotest.(check int) "delta" 7 (S.delta s1 s2 "x");
  Alcotest.(check int) "late counter counts from zero" 0 (S.delta s1 s2 "y")

let test_timelapse_series () =
  let t = S.create () in
  let cyc = S.counter t "cycles" in
  let ev = S.counter t "events" in
  let tl = T.create t ~interval:100 in
  for cycle = 1 to 1000 do
    S.incr cyc;
    if cycle mod 2 = 0 then S.incr ev;
    T.tick tl ~cycle
  done;
  Alcotest.(check int) "intervals" 10 (List.length (T.series tl "events"));
  let series = T.series tl "events" in
  List.iter (fun d -> Alcotest.(check int) "50 per interval" 50 d) series;
  let ratios = T.ratio_series tl "events" "cycles" in
  List.iter (fun r -> Alcotest.(check (float 0.001)) "ratio" 0.5 r) ratios

let test_timelapse_finish () =
  let t = S.create () in
  let c = S.counter t "n" in
  let tl = T.create t ~interval:1000 in
  S.add c 3;
  T.finish tl ~cycle:500;
  Alcotest.(check (list int)) "partial interval captured" [ 3 ] (T.series tl "n")

(* The sampler ends runs on exact interval boundaries; finish must not
   append a duplicate zero-length interval there. *)
let test_timelapse_finish_boundary () =
  let t = S.create () in
  let c = S.counter t "n" in
  let tl = T.create t ~interval:100 in
  for cycle = 1 to 200 do
    S.incr c;
    T.tick tl ~cycle
  done;
  Alcotest.(check int) "two intervals" 2 (List.length (T.series tl "n"));
  T.finish tl ~cycle:200;
  Alcotest.(check int) "finish at boundary is idempotent" 2 (List.length (T.series tl "n"));
  T.finish tl ~cycle:200;
  Alcotest.(check int) "repeated finish still idempotent" 2 (List.length (T.series tl "n"));
  S.add c 5;
  T.finish tl ~cycle:250;
  Alcotest.(check int) "later finish appends" 3 (List.length (T.series tl "n"));
  Alcotest.(check (list int)) "deltas" [ 100; 100; 5 ] (T.series tl "n")

(* The snapshot bracketing the sampling supervisor performs around each
   measured interval: deltas across several paths, late registration,
   and absolute values. *)
let test_snapshot_bracketing () =
  let t = S.create () in
  let cyc = S.counter t "core.cycles" in
  let ins = S.counter t "core.commit.insns" in
  S.add cyc 1000;
  S.add ins 900;
  let s0 = S.snapshot t ~cycle:1000 in
  S.add cyc 640;
  S.add ins 1000;
  (* a counter registered mid-interval (core rebuilt between phases
     re-registers the same paths; brand-new paths count from zero) *)
  let late = S.counter t "core.replays" in
  S.add late 7;
  let s1 = S.snapshot t ~cycle:1640 in
  Alcotest.(check int) "cycle delta" 640 (s1.S.cycle - s0.S.cycle);
  Alcotest.(check int) "cycles" 640 (S.delta s0 s1 "core.cycles");
  Alcotest.(check int) "insns" 1000 (S.delta s0 s1 "core.commit.insns");
  Alcotest.(check int) "late counter from zero" 7 (S.delta s0 s1 "core.replays");
  let at (s : S.snapshot) path =
    Option.map (fun i -> s.S.values.(i)) (Array.find_index (String.equal path) s.S.snap_paths)
  in
  Alcotest.(check (option int)) "absolute value present" (Some 1640)
    (at s1 "core.cycles");
  Alcotest.(check (option int)) "late path absent in older" None
    (at s0 "core.replays");
  (* re-registering an existing path returns the same counter, so the
     delta keeps accumulating across rebuilds *)
  let again = S.counter t "core.cycles" in
  S.add again 10;
  let s2 = S.snapshot t ~cycle:1650 in
  Alcotest.(check int) "rebuild accumulates" 650 (S.delta s0 s2 "core.cycles")

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "shared path" `Quick test_counter_shared;
    Alcotest.test_case "array growth" `Quick test_counter_growth;
    Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
    Alcotest.test_case "timelapse series" `Quick test_timelapse_series;
    Alcotest.test_case "timelapse finish" `Quick test_timelapse_finish;
    Alcotest.test_case "timelapse finish at boundary" `Quick
      test_timelapse_finish_boundary;
    Alcotest.test_case "snapshot bracketing" `Quick test_snapshot_bracketing;
  ]
