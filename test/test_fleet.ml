(* Fleet tests (lib/fleet): lease bookkeeping (timeouts, worker death,
   stragglers) as pure unit tests, flag validation, and an end-to-end
   serve/work run over a real unix socket — including a worker that
   dies mid-lease — whose merged result must be bit-identical to an
   in-process replay of the same capture. *)

module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Fleet = Ptl_fleet.Fleet
module Lq = Ptl_fleet.Lease_queue
module Config = Ptl_ooo.Config
module Context = Ptl_arch.Context
module Checkpoint = Ptl_hyper.Checkpoint
module Registry = Ptl_ooo.Registry
module Sim_failure = Ptl_ooo.Sim_failure
module Chaos = Ptl_chaos.Chaos

(* ---- lease queue ---- *)

let test_lease_queue_basics () =
  let q = Lq.create ~count:4 ~cached:[ 2 ] in
  Alcotest.(check int) "cached pre-decided" 1 (Lq.decided_count q);
  Alcotest.(check int) "rest pending" 3 (Lq.pending q);
  let l1 = Lq.lease q ~owner:"a" ~now:0.0 ~timeout:10.0 in
  let l2 = Lq.lease q ~owner:"b" ~now:0.0 ~timeout:10.0 in
  Alcotest.(check (option int)) "first lease" (Some 0) l1;
  Alcotest.(check (option int)) "second lease skips cached later" (Some 1) l2;
  Alcotest.(check int) "two leased" 2 (Lq.leased q);
  Alcotest.(check bool) "complete decides" true (Lq.complete q 0);
  Alcotest.(check bool) "duplicate completion ignored" false (Lq.complete q 0);
  Alcotest.(check bool) "cached index never re-decided" false (Lq.complete q 2);
  Alcotest.(check (option int)) "third lease" (Some 3)
    (Lq.lease q ~owner:"a" ~now:1.0 ~timeout:10.0);
  Alcotest.(check (option int)) "drained" None
    (Lq.lease q ~owner:"a" ~now:1.0 ~timeout:10.0);
  Alcotest.(check bool) "not finished while leases open" false (Lq.finished q);
  ignore (Lq.complete q 1);
  ignore (Lq.complete q 3);
  Alcotest.(check bool) "finished" true (Lq.finished q)

let test_lease_queue_timeout () =
  let q = Lq.create ~count:2 ~cached:[] in
  ignore (Lq.lease q ~owner:"w" ~now:0.0 ~timeout:5.0);
  Alcotest.(check (list int)) "nothing stale yet" [] (Lq.expire q ~now:4.0);
  Alcotest.(check (list int)) "lease expires" [ 0 ] (Lq.expire q ~now:6.0);
  (* the expired index is handed out again *)
  Alcotest.(check (option int)) "re-leased after expiry" (Some 1)
    (Lq.lease q ~owner:"v" ~now:6.0 ~timeout:5.0);
  Alcotest.(check (option int)) "requeued index comes back" (Some 0)
    (Lq.lease q ~owner:"v" ~now:6.0 ~timeout:5.0)

let test_lease_queue_worker_death () =
  let q = Lq.create ~count:3 ~cached:[] in
  ignore (Lq.lease q ~owner:"victim" ~now:0.0 ~timeout:60.0);
  ignore (Lq.lease q ~owner:"victim" ~now:0.0 ~timeout:60.0);
  ignore (Lq.lease q ~owner:"survivor" ~now:0.0 ~timeout:60.0);
  Alcotest.(check (list int)) "victim's leases re-queue" [ 0; 1 ]
    (Lq.drop_owner q "victim");
  Alcotest.(check int) "survivor keeps its lease" 1 (Lq.leased q);
  (* straggler: the victim's result for a re-queued index still lands
     first — the later worker's duplicate must be ignored *)
  Alcotest.(check bool) "straggler completion wins" true (Lq.complete q 0);
  Alcotest.(check (option int)) "lease skips the decided index" (Some 1)
    (Lq.lease q ~owner:"survivor" ~now:1.0 ~timeout:60.0)

let test_lease_queue_release_touch () =
  let q = Lq.create ~count:2 ~cached:[] in
  ignore (Lq.lease q ~owner:"w" ~now:0.0 ~timeout:5.0);
  (* a heartbeat renews the deadline: not stale at t=6 after a touch
     at t=4, stale without a further one at t=10 *)
  Alcotest.(check bool) "touch renews" true
    (Lq.touch q 0 ~owner:"w" ~now:4.0 ~timeout:5.0);
  Alcotest.(check (list int)) "renewed lease not stale" []
    (Lq.expire q ~now:6.0);
  Alcotest.(check bool) "touch by non-owner ignored" false
    (Lq.touch q 0 ~owner:"thief" ~now:6.0 ~timeout:5.0);
  Alcotest.(check (list int)) "expires from the renewed deadline" [ 0 ]
    (Lq.expire q ~now:10.0);
  Alcotest.(check bool) "touch after expiry ignored" false
    (Lq.touch q 0 ~owner:"w" ~now:10.0 ~timeout:5.0);
  (* release: a typed failure returns the lease to the queue. After the
     expiry above the queue holds [1; 0]; take both, release 0 *)
  Alcotest.(check (option int)) "untouched index first" (Some 1)
    (Lq.lease q ~owner:"w" ~now:10.0 ~timeout:5.0);
  Alcotest.(check (option int)) "expired index re-leased" (Some 0)
    (Lq.lease q ~owner:"w" ~now:10.0 ~timeout:5.0);
  Alcotest.(check bool) "release requeues" true (Lq.release q 0 ~owner:"w");
  Alcotest.(check bool) "double release ignored" false
    (Lq.release q 0 ~owner:"w");
  Alcotest.(check int) "released index pending again" 1 (Lq.pending q);
  Alcotest.(check bool) "not decided" false (Lq.is_decided q 0);
  ignore (Lq.lease q ~owner:"v" ~now:10.0 ~timeout:5.0);
  ignore (Lq.complete q 0);
  Alcotest.(check bool) "decided after completion" true (Lq.is_decided q 0);
  Alcotest.(check bool) "out-of-range never decided" false (Lq.is_decided q 99)

(* ---- end to end over a real socket ---- *)

let schedule =
  { Sample.ff_insns = 6_000; warmup_insns = 800; measure_insns = 1_200 }

let fresh_paths name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optlsim_%s_%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  (dir, dir ^ ".sock")

(* one shared capture for the end-to-end tests (the capture pass is the
   expensive part; stores built from it are cheap), with every interval
   replayed one by one — the referee the pooled paths must match *)
let captured =
  lazy
    (let d, _ = Test_checkpoint.bare_loop ~iters:20_000 () in
     let cr = Sample.run_capture ~schedule d in
     let ivs =
       Array.mapi
         (fun index dk ->
           Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
             ~index ~base:cr.Sample.cr_base dk)
         cr.Sample.cr_deltas
     in
     let expected =
       Sample.aggregate ~total_insns:cr.Sample.cr_insns
         ~total_cycles:cr.Sample.cr_cycles
         (Array.to_list ivs |> List.filter_map Fun.id)
     in
     (cr, ivs, expected))

let make_store ~dir cr =
  match
    Store.create ~dir ~workload:"fleet-test" ~core:"ooo" ~schedule
      ~placement:"fixed" cr ~config:Config.tiny
  with
  | Ok s -> s
  | Error e -> Alcotest.fail (Store.error_to_string e)

let connect_when_up path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if tries <= 0 then Alcotest.fail "server never came up"
      else begin
        Unix.sleepf 0.05;
        go (tries - 1)
      end
  in
  go 200

(* serve + one worker, with a second "worker" that leases an interval
   and dies without delivering: the lease must re-queue and the merged
   result must still be bit-identical to an in-process replay *)
let test_fleet_end_to_end () =
  let cr, _, expected = Lazy.force captured in
  let count = Array.length cr.Sample.cr_deltas in
  Alcotest.(check bool) "several intervals" true (count >= 5);
  let dir, sock = fresh_paths "fleet_e2e" in
  let store = make_store ~dir cr in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fleet.serve ~lease_timeout:60.0 ~socket:sock store)
  in
  (* the victim: lease interval 0, then vanish without delivering *)
  let fd = connect_when_up sock in
  Fleet.send fd (Fleet.Hello { worker = "victim" });
  (match (Fleet.recv fd : Fleet.reply) with
  | Fleet.Welcome { count = advertised; _ } ->
    Alcotest.(check int) "welcome advertises the store" count advertised
  | _ -> Alcotest.fail "expected Welcome");
  Fleet.send fd Fleet.Lease;
  (match (Fleet.recv fd : Fleet.reply) with
  | Fleet.Work _ -> ()
  | _ -> Alcotest.fail "expected a lease");
  Unix.close fd;
  (* a real worker drains the queue, including the re-queued interval *)
  let replayed =
    match Fleet.work ~retries:10 ~connect:sock () with
    | Ok n -> n
    | Error msg -> Alcotest.fail msg
  in
  let sv = Stdlib.Domain.join server in
  Alcotest.(check int) "worker replayed everything" count replayed;
  Alcotest.(check int) "server merged everything" count sv.Fleet.sv_replayed;
  Alcotest.(check bool) "victim's lease was re-queued" true
    (sv.Fleet.sv_requeued >= 1);
  Alcotest.(check bool) "merged result bit-identical to local replay" true
    (sv.Fleet.sv_result = expected);
  (* the run populated the (checkpoint, config) cache: a re-serve with
     no workers at all finishes instantly from cache, same answer *)
  let sv2 = Fleet.serve ~lease_timeout:60.0 ~socket:sock store in
  Alcotest.(check int) "everything from cache" count sv2.Fleet.sv_cached;
  Alcotest.(check int) "nothing replayed" 0 sv2.Fleet.sv_replayed;
  Alcotest.(check bool) "cached result identical" true
    (sv2.Fleet.sv_result = expected);
  (* and the in-process consumer agrees too *)
  match Fleet.replay ~jobs:1 store with
  | Ok rp ->
    Alcotest.(check bool) "replay result identical" true
      (rp.Fleet.rp_result = expected)
  | Error e -> Alcotest.fail (Store.error_to_string e)

(* a slow-but-alive worker: holds one lease well past the lease timeout
   while renewing it with heartbeats, then delivers — the lease must
   never be stolen (sv_requeued = 0) and the result stays identical *)
let test_heartbeat_keeps_lease () =
  let cr, _, expected = Lazy.force captured in
  let dir, sock = fresh_paths "fleet_hb" in
  let store = make_store ~dir cr in
  let lease_timeout = 1.0 in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fleet.serve ~lease_timeout ~max_failures:3 ~socket:sock store)
  in
  let fd = connect_when_up sock in
  Fleet.send fd (Fleet.Hello { worker = "slowpoke" });
  let hb =
    match (Fleet.recv fd : Fleet.reply) with
    | Fleet.Welcome { heartbeat; _ } -> heartbeat
    | _ -> Alcotest.fail "expected Welcome"
  in
  Alcotest.(check bool) "heartbeat interval beats the lease timeout" true
    (hb > 0.0 && hb < lease_timeout);
  Fleet.send fd Fleet.Lease;
  let index =
    match (Fleet.recv fd : Fleet.reply) with
    | Fleet.Work { index } -> index
    | _ -> Alcotest.fail "expected a lease"
  in
  (* outlive the lease timeout, renewing on the advertised cadence *)
  for _ = 1 to 6 do
    Unix.sleepf 0.3;
    Fleet.send fd (Fleet.Heartbeat { index });
    match (Fleet.recv fd : Fleet.reply) with
    | Fleet.Ack -> ()
    | _ -> Alcotest.fail "heartbeat expects Ack"
  done;
  let iv =
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule ~index
      ~base:cr.Sample.cr_base
      cr.Sample.cr_deltas.(index)
  in
  Fleet.send fd (Fleet.Done { index; outcome = Fleet.Replayed iv });
  (match (Fleet.recv fd : Fleet.reply) with
  | Fleet.Ack -> ()
  | _ -> Alcotest.fail "done expects Ack");
  Unix.close fd;
  let replayed =
    match Fleet.work ~retries:10 ~connect:sock () with
    | Ok n -> n
    | Error msg -> Alcotest.fail msg
  in
  let sv = Stdlib.Domain.join server in
  let count = Array.length cr.Sample.cr_deltas in
  Alcotest.(check int) "the drain worker got the rest" (count - 1) replayed;
  Alcotest.(check int) "slow lease never stolen" 0 sv.Fleet.sv_requeued;
  Alcotest.(check bool) "nothing quarantined" true (sv.Fleet.sv_quarantined = []);
  Alcotest.(check bool) "result identical" true (sv.Fleet.sv_result = expected)

(* mid-run server restart: a worker that has delivered nothing and gets
   Welcome'd then cut off must reconnect (with backoff) and drain the
   real server that replaces the dead one *)
let test_worker_reconnects_after_restart () =
  let cr, _, expected = Lazy.force captured in
  let dir, sock = fresh_paths "fleet_rc" in
  let store = make_store ~dir cr in
  let count = Array.length cr.Sample.cr_deltas in
  let server =
    Stdlib.Domain.spawn (fun () ->
        (* incarnation 1: greet the first worker, then die on it *)
        let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind listen_fd (Unix.ADDR_UNIX sock);
        Unix.listen listen_fd 4;
        let c, _ = Unix.accept listen_fd in
        (match (Fleet.recv c : Fleet.request) with
        | Fleet.Hello _ ->
          Fleet.send c
            (Fleet.Welcome
               {
                 dir;
                 core = "ooo";
                 config = Config.tiny;
                 schedule;
                 count;
                 heartbeat = 0.25;
               })
        | _ -> ());
        Unix.close c;
        Unix.close listen_fd;
        (try Sys.remove sock with Sys_error _ -> ());
        (* incarnation 2: the real server on the same socket *)
        Fleet.serve ~lease_timeout:60.0 ~max_failures:3 ~socket:sock store)
  in
  let replayed =
    match
      Fleet.work ~retries:50 ~reconnects:2 ~recv_timeout:5.0 ~connect:sock ()
    with
    | Ok n -> n
    | Error msg -> Alcotest.fail msg
  in
  let sv = Stdlib.Domain.join server in
  Alcotest.(check int) "worker drained everything after reconnecting" count
    replayed;
  Alcotest.(check bool) "result identical" true (sv.Fleet.sv_result = expected)

(* corrupt interval record 23 bytes in (the first Marshal payload byte,
   so the CRC check must trip): the fleet quarantines it after exactly
   max_failures attempts and terminates with a degraded result *)
let corrupt_interval store index =
  let path = Store.interval_path store index in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 23 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\000') 0 1);
  Unix.close fd

(* the merged result once the [poison] indices are quarantined *)
let degraded_expected cr ivs ~poison =
  Sample.aggregate ~total_insns:cr.Sample.cr_insns
    ~total_cycles:cr.Sample.cr_cycles
    (Array.to_list ivs
    |> List.filteri (fun i _ -> not (List.mem i poison))
    |> List.filter_map Fun.id)

let test_poison_interval_quarantine () =
  let cr, ivs, expected = Lazy.force captured in
  let count = Array.length cr.Sample.cr_deltas in
  let poison = 1 in
  let survivors = degraded_expected cr ivs ~poison:[ poison ] in
  Alcotest.(check bool) "poison actually contributes" true
    (survivors <> expected);
  (* in-process replay: one attempt, quarantined, run completes *)
  let dir, _ = fresh_paths "fleet_poison_rp" in
  let store = make_store ~dir cr in
  corrupt_interval store poison;
  (match Fleet.replay ~jobs:1 store with
  | Error e -> Alcotest.fail (Store.error_to_string e)
  | Ok rp ->
    Alcotest.(check (list int)) "replay quarantines the poison" [ poison ]
      (List.map fst rp.Fleet.rp_quarantined);
    Alcotest.(check int) "survivors replayed" (count - 1) rp.Fleet.rp_replayed;
    Alcotest.(check bool) "degraded result covers survivors" true
      (rp.Fleet.rp_result = survivors));
  (* fleet: bounded retries — exactly max_failures diagnostics, then
     the run terminates (no livelock) with the same degraded result *)
  let dir, sock = fresh_paths "fleet_poison_sv" in
  let store = make_store ~dir cr in
  corrupt_interval store poison;
  let max_failures = 2 in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Fleet.serve ~lease_timeout:60.0 ~max_failures ~socket:sock store)
  in
  let replayed =
    match Fleet.work ~retries:10 ~connect:sock () with
    | Ok n -> n
    | Error msg -> Alcotest.fail msg
  in
  let sv = Stdlib.Domain.join server in
  Alcotest.(check int) "worker replayed the survivors" (count - 1) replayed;
  (match sv.Fleet.sv_quarantined with
  | [ (i, diags) ] ->
    Alcotest.(check int) "poison index quarantined" poison i;
    Alcotest.(check int) "retry budget fully spent, then stopped"
      max_failures (List.length diags)
  | q ->
    Alcotest.fail
      (Printf.sprintf "expected one quarantined interval, got %d"
         (List.length q)));
  Alcotest.(check bool) "degraded fleet result covers survivors" true
    (sv.Fleet.sv_result = survivors);
  (* the degraded report names the poison and the coverage loss *)
  let tmp = Filename.temp_file "optlsim_degraded" ".txt" in
  let oc = open_out tmp in
  Sample.report_degraded oc ~count ~quarantined:sv.Fleet.sv_quarantined
    sv.Fleet.sv_result;
  close_out oc;
  let ic = open_in tmp in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report is marked DEGRADED" true
    (contains text "DEGRADED");
  Alcotest.(check bool) "report names the quarantined interval" true
    (contains text "interval 1")

let contains = Test_checkpoint.contains

(* the committed-instruction count interval [index]'s checkpoint starts
   at; a wrap runs right after the restore, so this names the interval *)
let start_of cr index =
  cr.Sample.cr_deltas.(index).Checkpoint.dk_ctx.Context.insns_committed

(* a wrap that raises [exn ()] where [fires ctx] holds, and counts every
   pipeline step it lets through *)
let planted_wrap ~fires ~exn ~steps ~env:_ ~ctx (inst : Registry.instance) =
  if fires ctx then raise (exn ());
  {
    inst with
    Registry.step =
      (fun () ->
        Atomic.incr steps;
        inst.Registry.step ());
  }

(* the replay pool: a record that will not load and a replay that raises
   a Sim_failure are both quarantined with their diagnostics, the
   survivors merge identically for 1 and 4 jobs, and Chaos.Killed is
   not quarantined but propagates — only once every worker domain is
   joined, so nothing is still stepping when the caller sees it *)
let test_replay_pool_quarantine () =
  let cr, ivs, _ = Lazy.force captured in
  let count = Array.length cr.Sample.cr_deltas in
  let unloadable = 1 and failing = 3 in
  let survivors = degraded_expected cr ivs ~poison:[ unloadable; failing ] in
  let sim_failure () =
    Sim_failure.Sim_failure
      (Sim_failure.make ~subsystem:"test.planted" ~kind:Sim_failure.Invariant
         ~cycle:0 ~rip:0L "planted replay failure")
  in
  let run jobs =
    (* same directory for both runs: diagnostics name the record path *)
    let dir, _ = fresh_paths "fleet_pool" in
    let store = make_store ~dir cr in
    corrupt_interval store unloadable;
    let wrap =
      planted_wrap ~exn:sim_failure ~steps:(Atomic.make 0) ~fires:(fun ctx ->
          ctx.Context.insns_committed = start_of cr failing)
    in
    match Fleet.replay ~jobs ~wrap store with
    | Error e -> Alcotest.fail (Store.error_to_string e)
    | Ok rp ->
      (match rp.Fleet.rp_quarantined with
      | [ (i, [ load_diag ]); (j, [ sim_diag ]) ] ->
        Alcotest.(check (pair int int)) "both planted failures quarantined"
          (unloadable, failing) (i, j);
        Alcotest.(check bool) "load diagnostic names the corruption" true
          (contains load_diag "checksum");
        Alcotest.(check bool) "replay diagnostic carries the Sim_failure" true
          (contains sim_diag "test.planted"
          && contains sim_diag "planted replay failure")
      | q ->
        Alcotest.fail
          (Printf.sprintf "expected two quarantined intervals, got %d"
             (List.length q)));
      Alcotest.(check int) "survivors replayed" (count - 2)
        rp.Fleet.rp_replayed;
      Alcotest.(check bool) "survivors merge to the degraded referee" true
        (rp.Fleet.rp_result = survivors);
      let tmp = Filename.temp_file "optlsim_pool" ".txt" in
      let oc = open_out_bin tmp in
      Sample.report_degraded oc ~count ~quarantined:rp.Fleet.rp_quarantined
        rp.Fleet.rp_result;
      close_out oc;
      let ic = open_in_bin tmp in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove tmp;
      text
  in
  Alcotest.(check string) "degraded report identical for 1 and 4 jobs" (run 1)
    (run 4);
  (* a kill is the process dying, not a poison interval. It fires on the
     calling domain once the pool is busy, while the spawned workers are
     mid-interval: they must all be joined before the kill surfaces *)
  let dir, _ = fresh_paths "fleet_pool_kill" in
  let store = make_store ~dir cr in
  let steps = Atomic.make 0 in
  let killed () = Chaos.Killed "test.planted" in
  let wrap =
    planted_wrap ~exn:killed ~steps ~fires:(fun ctx ->
        Stdlib.Domain.is_main_domain ()
        && ctx.Context.insns_committed >= start_of cr 4)
  in
  (match Fleet.replay ~jobs:4 ~wrap store with
  | _ -> Alcotest.fail "Chaos.Killed was swallowed by the replay pool"
  | exception Chaos.Killed _ -> ());
  let seen = Atomic.get steps in
  Unix.sleepf 0.2;
  Alcotest.(check int) "no worker still stepping after the kill surfaced" seen
    (Atomic.get steps)

(* the pool starts no more domains than the host recommends: ~jobs:8
   runs on at most recommended_domain_count domains, reports the capped
   count, and merges to exactly the ~jobs:1 result *)
let test_replay_pool_capped () =
  let cr, _, expected = Lazy.force captured in
  let count = Array.length cr.Sample.cr_deltas in
  let run jobs =
    let dir, _ = fresh_paths "fleet_cap" in
    match Fleet.replay ~jobs (make_store ~dir cr) with
    | Ok rp -> rp
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let one = run 1 and eight = run 8 in
  Alcotest.(check int) "one job" 1 one.Fleet.rp_jobs;
  Alcotest.(check int) "eight jobs capped at the host and the intervals"
    (min count (min 8 (Stdlib.Domain.recommended_domain_count ())))
    eight.Fleet.rp_jobs;
  Alcotest.(check bool) "jobs=8 identical to jobs=1" true
    (one.Fleet.rp_result = expected && eight.Fleet.rp_result = expected)

let suite =
  [
    Alcotest.test_case "lease queue basics" `Quick test_lease_queue_basics;
    Alcotest.test_case "lease queue release and touch" `Quick
      test_lease_queue_release_touch;
    Alcotest.test_case "lease queue timeout" `Quick test_lease_queue_timeout;
    Alcotest.test_case "lease queue worker death" `Quick
      test_lease_queue_worker_death;
    Alcotest.test_case "fleet end to end (with worker death)" `Quick
      test_fleet_end_to_end;
    Alcotest.test_case "heartbeats keep a slow lease alive" `Quick
      test_heartbeat_keeps_lease;
    Alcotest.test_case "worker reconnects after server restart" `Quick
      test_worker_reconnects_after_restart;
    Alcotest.test_case "poison interval quarantined in bounded retries"
      `Quick test_poison_interval_quarantine;
    Alcotest.test_case "replay pool quarantines, propagates kills" `Quick
      test_replay_pool_quarantine;
    Alcotest.test_case "replay pool caps domains at the host" `Quick
      test_replay_pool_capped;
  ]
