(** The distributed sampling fleet: [optlsim serve] exposes a durable
    interval store ({!Ptl_store.Store}) over a Unix-domain-socket work
    queue; any number of [optlsim work] processes lease intervals,
    replay them from the shared base + delta checkpoints, and stream
    results back. The server merges by capture index, so the merged
    report is byte-identical to an in-process [--sample-jobs] run for any
    worker count and any completion order — the paper's cluster-distributed
    PTLsim/X workflow (capture once, replay anywhere, deterministically).

    Fault model: a worker that dies or wedges mid-lease loses nothing —
    its leases re-queue (on disconnect, or after [lease_timeout]) and
    another worker replays them. Replay is a pure function of
    (checkpoint, schedule, config), so a straggler's duplicate result is
    bit-identical and the first completion simply wins. Results are also
    written to the store's (checkpoint, config-digest) cache, making
    repeated runs of the same store + config free.

    Failures are data, not deaths. A worker that hits a replay
    exception — a {!Ptl_ooo.Sim_failure}, a corrupt interval record, a
    guard-detected invariant breach — streams a typed [Failed] outcome
    to the server and keeps serving; the server retries the interval up
    to [max_failures] times and then {e quarantines} it, so one poison
    interval degrades the run's coverage instead of livelocking the
    fleet. Slow-but-alive workers renew their lease with heartbeats
    (interval advertised in [Welcome]), so [lease_timeout] can be tuned
    down to reap dead workers in seconds without stealing work from
    live ones. The instrumented chaos points ({!Ptl_chaos.Chaos}) let
    tests kill/drop/delay/truncate any protocol step deterministically. *)

module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Config = Ptl_ooo.Config
module Chaos = Ptl_chaos.Chaos
module Rng = Ptl_util.Rng
module Sim_failure = Ptl_ooo.Sim_failure
module Stats = Ptl_stats.Statstree
module Domain = Ptl_hyper.Domain

(* ---------------------------------------------------------------- *)
(* Wire protocol                                                     *)
(* ---------------------------------------------------------------- *)

(** What a worker's lease came to: a replayed interval (possibly [None]
    if the guest halted before a measured instruction — still a valid,
    cacheable answer), or a typed failure with its diagnostic. *)
type outcome =
  | Replayed of Sample.interval option
  | Failed of { diag : string }

(** Strict one-request-one-reply protocol, client speaks first. Frames
    are a 4-byte big-endian payload length + a [Marshal] payload (plain
    data only — {!Config.t}, {!Sample.interval} and friends carry no
    closures). [Heartbeat] renews a lease mid-replay; the server always
    answers it with [Ack]. *)
type request =
  | Hello of { worker : string }
  | Lease
  | Heartbeat of { index : int }
  | Done of { index : int; outcome : outcome }

type reply =
  | Welcome of {
      dir : string;  (** store directory; the worker opens it itself *)
      core : string;
      config : Config.t;
      schedule : Sample.schedule;
      count : int;
      heartbeat : float;  (** renew leases this often while replaying *)
    }
  | Work of { index : int }
  | Drain  (** nothing to hand out now, leases outstanding — retry *)
  | Finished
  | Ack

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let rec read_all fd b pos len =
  if len > 0 then begin
    let n = Unix.read fd b pos len in
    if n = 0 then raise End_of_file;
    read_all fd b (pos + n) (len - n)
  end

let send fd v =
  let payload = Marshal.to_bytes v [] in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length payload));
  write_all fd hdr 0 4;
  write_all fd payload 0 (Bytes.length payload)

let recv fd =
  let hdr = Bytes.create 4 in
  read_all fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  let payload = Bytes.create len in
  read_all fd payload 0 len;
  Marshal.from_bytes payload 0

(** A reply did not arrive within the worker's patience — the server
    (or the message) is gone; treated exactly like a disconnect. *)
exception Recv_timeout

(* recv with a patience bound on the first byte: a lost message (chaos
   Drop, dead server) must surface as Recv_timeout, never a hang. *)
let recv_within fd timeout =
  let readable, _, _ = Unix.select [ fd ] [] [] timeout in
  if readable = [] then raise Recv_timeout else recv fd

(* Chaos-instrumented request send (worker side). Drop consumes the
   message — the missing reply then surfaces as Recv_timeout and the
   session ends like a disconnect. Truncate writes a torn frame (full
   length header, half the payload) before dying, so the server
   exercises its mid-frame EOF path. *)
let chaos_send fd point v =
  match Chaos.fire point with
  | None | Some (Chaos.Flip_bit _) | Some Chaos.Fail -> send fd v
  | Some Chaos.Kill -> raise (Chaos.Killed point)
  | Some Chaos.Drop -> ()
  | Some (Chaos.Delay s) ->
    Unix.sleepf s;
    send fd v
  | Some Chaos.Truncate ->
    let payload = Marshal.to_bytes v [] in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length payload));
    write_all fd hdr 0 4;
    write_all fd payload 0 (Bytes.length payload / 2);
    raise (Chaos.Killed (point ^ " (torn)"))

(* a peer vanishing mid-exchange is a routine fleet event, not a crash *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

(* conservative sun_path budget for the CLI's socket paths; real
   limits are 104-108 bytes *)
let max_socket_path = 100

(* ---------------------------------------------------------------- *)
(* The replay pool                                                   *)
(* ---------------------------------------------------------------- *)

(* The number of domains a pool asked for [jobs] workers runs [n]
   intervals on: at most [n] and at most the host's recommended domain
   count. An OCaml 5 minor collection stops every domain, so a domain
   beyond the core count makes each collection wait for a descheduled
   one ([~jobs:4] ran at 0.43x of [~jobs:1] on a 2-core host). *)
let pool_jobs ~jobs n =
  max 1 (min (min jobs n) (Stdlib.Domain.recommended_domain_count ()))

(* Replay the intervals [indices] on [pool_jobs ~jobs] {!Stdlib.Domain}s
   pulling from a shared atomic cursor, each on fully private state
   ({!Sample.replay_delta} over the delta [load] fetches for it; an
   [Error] is that interval's diagnostic). Every per-interval failure —
   a load error, a {!Sim_failure}, any other exception — becomes a
   [Failed] outcome, so one poison interval is quarantined instead of
   aborting the run. [Chaos.Killed] is the one exception deliberately
   let through (it stands in for the process dying at this point); it
   stops the other workers taking new intervals and propagates once
   every spawned domain is joined. Outcomes are by position in
   [indices], so they are bit-identical for any [jobs] and any
   completion order. *)
let replay_pool ~jobs ?progress ?wrap ~core ~config ~schedule ~base ~load
    indices =
  let n = Array.length indices in
  let out = Array.make n (Replayed None) in
  let cursor = Atomic.make 0 in
  let replay index =
    match load index with
    | Error diag -> Failed { diag }
    | Ok d -> (
      try
        Replayed
          (Sample.replay_delta ?progress ?wrap ~core_name:core ~config
             ~schedule ~index ~base d)
      with
      | Chaos.Killed _ as e -> raise e
      | Sim_failure.Sim_failure f ->
        Failed { diag = Sim_failure.summary f ^ "\n" ^ Sim_failure.render f }
      | e -> Failed { diag = Printexc.to_string e })
  in
  (* each worker writes only its own cells of [out], published to the
     caller by [Domain.join]; a worker's death comes back as data so
     the caller can join every domain before re-raising it *)
  let worker () =
    let rec go () =
      let k = Atomic.fetch_and_add cursor 1 in
      if k < n then begin
        out.(k) <- replay indices.(k);
        go ()
      end
    in
    match go () with
    | () -> None
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Atomic.set cursor n;
      Some (e, bt)
  in
  let jobs = pool_jobs ~jobs n in
  let doms = Array.init (jobs - 1) (fun _ -> Stdlib.Domain.spawn worker) in
  let mine = worker () in
  let deaths = mine :: List.map Stdlib.Domain.join (Array.to_list doms) in
  (match List.find_map Fun.id deaths with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  out

(* Settle pool outcomes in index order: [keep index iv] for every
   replayed interval, every failure logged and quarantined (in-process
   replay is deterministic, so one attempt is the whole retry budget).
   Returns the replayed count and the quarantined intervals by index. *)
let settle ~log ~keep indices out =
  let replayed = ref 0 and quarantined = ref [] in
  Array.iteri
    (fun k r ->
      let index = indices.(k) in
      match r with
      | Replayed iv ->
        incr replayed;
        keep index iv
      | Failed { diag } ->
        quarantined := (index, [ diag ]) :: !quarantined;
        log
          (Printf.sprintf "replay: interval %d quarantined: %s" index
             (match String.index_opt diag '\n' with
             | Some j -> String.sub diag 0 j
             | None -> diag)))
    out;
  (!replayed, List.rev !quarantined)

(* ---------------------------------------------------------------- *)
(* Server                                                            *)
(* ---------------------------------------------------------------- *)

type served = {
  sv_result : Sample.result;  (** merged by capture index *)
  sv_cached : int;  (** intervals answered from the result cache *)
  sv_replayed : int;  (** intervals replayed by workers this run *)
  sv_requeued : int;  (** leases re-queued (worker death or timeout) *)
  sv_workers : int;  (** distinct workers that said Hello *)
  sv_quarantined : (int * string list) list;
      (** intervals given up on after [max_failures] typed failures,
          sorted by index, each with its diagnostics (newest first) *)
}

let merge (m : Store.manifest) results =
  let intervals = Array.to_list results |> List.filter_map Fun.id in
  Sample.aggregate ~total_insns:m.Store.m_total_insns
    ~total_cycles:m.Store.m_total_cycles intervals

(** Serve [store] at unix socket [socket] until every interval is
    decided; returns the merged result. Single-threaded select loop:
    the server only shuffles indices and (small, already-replayed)
    interval records, the workers do the simulation. [config] overrides
    the manifest's machine configuration (a sweep leg replayed over the
    same checkpoints); results then cache under that config's digest.

    A [Failed] outcome re-queues the interval until it has accumulated
    [max_failures] diagnostics, then quarantines it: the interval
    counts as decided-without-result, the run finishes (bounded retries
    — a deterministic poison interval cannot livelock the fleet), and
    the caller renders the quarantine list as an explicitly degraded
    report. Failures are never written to the result cache. *)
let serve ?(lease_timeout = 30.) ?(max_failures = 3) ?(log = fun _ -> ())
    ?config ~socket store =
  ignore_sigpipe ();
  let m = Store.manifest store in
  let config = Option.value config ~default:m.Store.m_config in
  let digest = Store.config_digest config in
  let count = m.Store.m_count in
  let results = Array.make count None in
  let cached = Store.cached_results store ~config_digest:digest in
  List.iter (fun (i, iv) -> results.(i) <- iv) cached;
  let q = Lease_queue.create ~count ~cached:(List.map fst cached) in
  if cached <> [] then
    log
      (Printf.sprintf "serve: %d/%d interval(s) already in the result cache"
         (List.length cached) count);
  let requeued = ref 0 and replayed = ref 0 in
  let failures : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let quarantined = ref [] in
  let workers = Hashtbl.create 8 in
  if Sys.file_exists socket then Sys.remove socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  let clients : (Unix.file_descr, string) Hashtbl.t = Hashtbl.create 8 in
  let drop fd =
    let lost = Lease_queue.drop_owner q fd in
    if lost <> [] then begin
      requeued := !requeued + List.length lost;
      log
        (Printf.sprintf "serve: worker %s gone, re-queued interval(s) %s"
           (try Hashtbl.find clients fd with Not_found -> "?")
           (String.concat "," (List.map string_of_int lost)))
    end;
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let reply fd r = try send fd r with Unix.Unix_error _ | Sys_error _ -> drop fd in
  let handle fd =
    match recv fd with
    | exception (End_of_file | Unix.Unix_error _ | Failure _) -> drop fd
    | Hello { worker } ->
      Hashtbl.replace clients fd worker;
      Hashtbl.replace workers worker ();
      log (Printf.sprintf "serve: worker %s joined" worker);
      reply fd
        (Welcome
           {
             dir = Store.dir store;
             core = m.Store.m_core;
             config;
             schedule = Store.schedule m;
             count;
             heartbeat = lease_timeout /. 4.;
           })
    | Lease ->
      (match
         Lease_queue.lease q ~owner:fd ~now:(Unix.gettimeofday ())
           ~timeout:lease_timeout
       with
      | Some i -> reply fd (Work { index = i })
      | None -> reply fd (if Lease_queue.finished q then Finished else Drain))
    | Heartbeat { index } ->
      ignore
        (Lease_queue.touch q index ~owner:fd ~now:(Unix.gettimeofday ())
           ~timeout:lease_timeout
          : bool);
      reply fd Ack
    | Done { index; outcome = Replayed interval } ->
      if Lease_queue.complete q index then begin
        results.(index) <- interval;
        incr replayed;
        (match Store.put_result store ~config_digest:digest ~index interval with
        | Ok () -> ()
        | Error e ->
          log (Printf.sprintf "serve: result cache write failed: %s"
                 (Store.error_to_string e)));
        log
          (Printf.sprintf "serve: interval %d done by %s (%d/%d)" index
             (try Hashtbl.find clients fd with Not_found -> "?")
             (Lease_queue.decided_count q) count)
      end;
      reply fd Ack
    | Done { index; outcome = Failed { diag } } ->
      (* a straggler failing an interval someone else already decided
         is noise, not evidence against the interval *)
      if not (Lease_queue.is_decided q index) then begin
        let diags =
          diag :: (try Hashtbl.find failures index with Not_found -> [])
        in
        Hashtbl.replace failures index diags;
        let attempts = List.length diags in
        if attempts >= max_failures then begin
          ignore (Lease_queue.complete q index : bool);
          quarantined := (index, diags) :: !quarantined;
          log
            (Printf.sprintf
               "serve: interval %d QUARANTINED after %d failure(s); last: %s"
               index attempts
               (match String.index_opt diag '\n' with
               | Some j -> String.sub diag 0 j
               | None -> diag))
        end
        else begin
          ignore (Lease_queue.release q index ~owner:fd : bool);
          log
            (Printf.sprintf
               "serve: interval %d failed (attempt %d/%d) on %s, re-queued"
               index attempts max_failures
               (try Hashtbl.find clients fd with Not_found -> "?"))
        end
      end;
      reply fd Ack
  in
  while not (Lease_queue.finished q) do
    let stale = Lease_queue.expire q ~now:(Unix.gettimeofday ()) in
    if stale <> [] then begin
      requeued := !requeued + List.length stale;
      log
        (Printf.sprintf "serve: lease timeout, re-queued interval(s) %s"
           (String.concat "," (List.map string_of_int stale)))
    end;
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
    in
    let readable, _, _ =
      Unix.select fds [] [] (min 0.25 (lease_timeout /. 4.))
    in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          let c, _ = Unix.accept listen_fd in
          Hashtbl.replace clients c "?"
        end
        else if Hashtbl.mem clients fd then handle fd)
      readable
  done;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  Unix.close listen_fd;
  (try Sys.remove socket with Sys_error _ -> ());
  {
    sv_result = merge m results;
    sv_cached = List.length cached;
    sv_replayed = !replayed;
    sv_requeued = !requeued;
    sv_workers = Hashtbl.length workers;
    sv_quarantined =
      List.sort (fun (a, _) (b, _) -> compare a b) !quarantined;
  }

(* ---------------------------------------------------------------- *)
(* Worker                                                            *)
(* ---------------------------------------------------------------- *)

let store_err r =
  match r with Ok v -> Ok v | Error e -> Error (Store.error_to_string e)

(** Connect with exponential backoff + jitter: attempt [n] waits
    [min 2.0 (0.05 * 2^(n-1))] seconds scaled by a deterministic
    per-process jitter factor in [1.0, 1.25), so a churned fleet's
    reconnect herd spreads out instead of stampeding the socket. *)
let connect_retry path tries =
  let rng = Rng.create ((Unix.getpid () * 7919) + 17) in
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt >= tries then
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
      else begin
        let backoff = min 2.0 (0.05 *. (2.0 ** float_of_int (attempt - 1))) in
        Unix.sleepf (backoff *. (1.0 +. (0.25 *. Rng.float rng)));
        go (attempt + 1)
      end
  in
  go 1

(* Replay one leased interval through the replay pool, every
   per-interval failure coming back as a typed outcome. [progress]
   heartbeats the lease every [heartbeat] seconds of wall time while
   the pipeline steps — request-reply, so the strict protocol
   alternation is preserved; heartbeat trouble is swallowed (the lease
   machinery already covers a lost renewal). *)
let replay_outcome ~store ~base ~core ~config ~schedule ~heartbeat
    ~recv_timeout ?wrap fd index =
  (match Chaos.fire "work.replay" with
  | Some Chaos.Kill -> raise (Chaos.Killed "work.replay")
  | Some (Chaos.Delay s) -> Unix.sleepf s
  | _ -> ());
  let last_beat = ref (Unix.gettimeofday ()) in
  let progress () =
    let now = Unix.gettimeofday () in
    if heartbeat > 0.0 && now -. !last_beat >= heartbeat then begin
      last_beat := now;
      try
        chaos_send fd "work.heartbeat" (Heartbeat { index });
        match recv_within fd recv_timeout with _ -> ()
      with
      | Chaos.Killed _ as e -> raise e
      | Recv_timeout | End_of_file | Unix.Unix_error _ | Failure _ -> ()
    end
  in
  (replay_pool ~jobs:1 ~progress ?wrap ~core ~config ~schedule ~base
     ~load:(fun i -> store_err (Store.load_interval store i))
     [| index |]).(0)

(** One worker process: connect to a server at [connect], lease
    intervals, replay each from the store's base + delta checkpoints,
    stream results (or typed failures) back until the server says
    Finished. A server that vanishes {e after} this worker delivered
    results is a normal straggler shutdown; one that vanishes while the
    worker has delivered nothing is treated as a mid-run restart and
    the worker reconnects (up to [reconnects] times, through
    {!connect_retry}'s backoff). Replies not arriving within
    [recv_timeout] seconds count as the server vanishing. [wrap]
    interposes on each replay's core instance (e.g. a guard
    supervisor). Returns the number of intervals this worker replayed. *)
let work ?(retries = 50) ?(reconnects = 2) ?(recv_timeout = 30.)
    ?(log = fun _ -> ()) ?wrap ~connect () : (int, string) result =
  ignore_sigpipe ();
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let me = Printf.sprintf "pid-%d" (Unix.getpid ()) in
  let replayed = ref 0 in
  (* one connected session; Ok true = server said Finished *)
  let session fd =
    chaos_send fd "work.hello" (Hello { worker = me });
    match recv_within fd recv_timeout with
    | Work _ | Drain | Finished | Ack ->
      Error "unexpected greeting from server (protocol mismatch?)"
    | Welcome { dir; core; config; schedule; count = _; heartbeat } ->
      let* store = store_err (Store.open_store ~dir) in
      let* base = store_err (Store.load_base store) in
      log (Printf.sprintf "work: %s attached to %s" me dir);
      let rec loop () =
        chaos_send fd "work.lease" Lease;
        match recv_within fd recv_timeout with
        | Work { index } -> (
          let outcome =
            replay_outcome ~store ~base ~core ~config ~schedule ~heartbeat
              ~recv_timeout ?wrap fd index
          in
          chaos_send fd "work.done" (Done { index; outcome });
          match recv_within fd recv_timeout with
          | Ack ->
            (match outcome with
            | Replayed _ ->
              incr replayed;
              log (Printf.sprintf "work: %s replayed interval %d" me index)
            | Failed { diag } ->
              log
                (Printf.sprintf "work: %s failed interval %d: %s" me index
                   (match String.index_opt diag '\n' with
                   | Some j -> String.sub diag 0 j
                   | None -> diag)));
            loop ()
          | Finished -> Ok true
          | Welcome _ | Work _ | Drain -> Ok false)
        | Drain ->
          Unix.sleepf 0.05;
          loop ()
        | Finished -> Ok true
        | Welcome _ | Ack -> Ok false
      in
      loop ()
  in
  let rec attempt n =
    match connect_retry connect retries with
    | Error e -> if !replayed > 0 then Ok !replayed else Error e
    | Ok fd -> (
      let r =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try session fd
            with Recv_timeout | End_of_file | Unix.Unix_error _ | Failure _ ->
              Ok false)
      in
      match r with
      | Error _ as e -> e
      | Ok true -> Ok !replayed
      | Ok false ->
        (* the server closing on a worker that already delivered results
           means the run finished elsewhere — normal straggler shutdown.
           Closing on a worker with nothing delivered looks like a
           mid-run server restart: reconnect and try again. *)
        if !replayed = 0 && n < reconnects then begin
          log
            (Printf.sprintf
               "work: %s lost the server before delivering anything, \
                reconnecting (%d/%d)"
               me (n + 1) reconnects);
          attempt (n + 1)
        end
        else Ok !replayed)
  in
  attempt 0

(* ---------------------------------------------------------------- *)
(* Local replay (optlsim replay: consume a store without a fleet)     *)
(* ---------------------------------------------------------------- *)

type replayed = {
  rp_result : Sample.result;
  rp_cached : int;  (** intervals answered from the result cache *)
  rp_replayed : int;  (** intervals successfully replayed this run *)
  rp_quarantined : (int * string list) list;
      (** intervals whose replay (or record load) failed, sorted by
          index — in-process replay is deterministic, so one attempt is
          the whole retry budget *)
  rp_jobs : int;
      (** domains the replay pool ran on: [jobs] capped at the intervals
          to replay and at {!Stdlib.Domain.recommended_domain_count} *)
}

(** Replay every interval of [store] in this process (up to [jobs]
    worker {!Stdlib.Domain}s, see [rp_jobs]; 1 = inline), using and
    refilling the result cache. Byte-identical to {!serve} + workers
    and to an in-process {!run_parallel} of the same capture. [config]
    overrides the manifest's machine configuration — the sweep engine's
    per-leg entry point: every leg replays the same checkpoints, cached
    under its own config digest.
    A corrupt interval record or a replay exception quarantines that
    interval ([rp_quarantined]) instead of aborting the run; only a
    missing/corrupt base image (nothing can replay) is a hard error. *)
let replay ?(jobs = 1) ?(log = fun _ -> ()) ?config ?wrap store :
    (replayed, Store.error) result =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let m = Store.manifest store in
  let config = Option.value config ~default:m.Store.m_config in
  let digest = Store.config_digest config in
  let count = m.Store.m_count in
  let schedule = Store.schedule m in
  let results = Array.make count None in
  let cached = Store.cached_results store ~config_digest:digest in
  List.iter (fun (i, iv) -> results.(i) <- iv) cached;
  let hit = Array.make count false in
  List.iter (fun (i, _) -> hit.(i) <- true) cached;
  let miss =
    Array.of_list
      (List.filter (fun i -> not hit.(i)) (List.init count Fun.id))
  in
  let pool = pool_jobs ~jobs (Array.length miss) in
  let* replayed, quarantined =
    if Array.length miss = 0 then Ok (0, [])
    else begin
      let* base = Store.load_base store in
      log
        (Printf.sprintf "replay: %d cached, %d to replay on %d job(s)"
           (List.length cached) (Array.length miss) pool);
      let out =
        replay_pool ~jobs ?wrap ~core:m.Store.m_core ~config ~schedule ~base
          ~load:(fun i -> store_err (Store.load_interval store i))
          miss
      in
      let keep index iv =
        results.(index) <- iv;
        match Store.put_result store ~config_digest:digest ~index iv with
        | Ok () -> ()
        | Error e ->
          log
            (Printf.sprintf "replay: result cache write failed: %s"
               (Store.error_to_string e))
      in
      Ok (settle ~log ~keep miss out)
    end
  in
  Ok
    {
      rp_result = merge m results;
      rp_cached = List.length cached;
      rp_replayed = replayed;
      rp_quarantined = quarantined;
      rp_jobs = pool;
    }

(** Checkpoint-parallel sampled run in one process: one native master
    pass ({!Sample.run_capture}: functional warming throughout, a base
    image plus one delta checkpoint per warm-up+measure window), then
    the replay pool over the deltas on [jobs] worker {!Stdlib.Domain}s,
    merged by capture index — bit-identical for any [jobs] value and any
    completion order ([jobs = 1] runs the same pool inline). A failing
    interval is quarantined ([rp_quarantined]) exactly as in {!replay};
    [rp_cached] is always 0. Bumps the [sample.intervals] /
    [sample.measured_*] counters of the domain's stats tree for the
    surviving intervals. Raises [Invalid_argument] on kernel-hosted
    domains, whose host-side minios state is not checkpointable. *)
let run_parallel ?(roi = false) ?(placement = Sample.Fixed)
    ?(max_insns = max_int) ?(max_cycles = max_int) ?(jobs = 1) ~schedule
    (d : Domain.t) =
  if jobs < 1 then invalid_arg "Fleet.run_parallel: jobs must be >= 1";
  let stats = d.Domain.env.Ptl_arch.Env.stats in
  let c_intervals = Stats.counter stats "sample.intervals"
  and c_meas_i = Stats.counter stats "sample.measured_insns"
  and c_meas_c = Stats.counter stats "sample.measured_cycles" in
  let cr =
    Sample.run_capture ~roi ~placement ~max_insns ~max_cycles ~schedule d
  in
  let n = Array.length cr.Sample.cr_deltas in
  let indices = Array.init n Fun.id and results = Array.make n None in
  let out =
    replay_pool ~jobs ~core:d.Domain.core_name ~config:d.Domain.config
      ~schedule ~base:cr.Sample.cr_base
      ~load:(fun i -> Ok cr.Sample.cr_deltas.(i))
      indices
  in
  let replayed, quarantined =
    settle ~log:ignore ~keep:(Array.set results) indices out
  in
  (* merge in capture order: independent of job count and completion
     order, so the report is bit-identical across --sample-jobs *)
  let intervals = Array.to_list results |> List.filter_map Fun.id in
  List.iter
    (fun (iv : Sample.interval) ->
      Stats.incr c_intervals;
      Stats.add c_meas_i iv.Sample.iv_insns;
      Stats.add c_meas_c iv.Sample.iv_cycles)
    intervals;
  {
    rp_result =
      Sample.aggregate ~total_insns:cr.Sample.cr_insns
        ~total_cycles:cr.Sample.cr_cycles intervals;
    rp_cached = 0;
    rp_replayed = replayed;
    rp_quarantined = quarantined;
    rp_jobs = pool_jobs ~jobs n;
  }
