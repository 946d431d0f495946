(** The distributed sampling fleet: [optlsim serve] exposes a durable
    interval store ({!Ptl_store.Store}) over a unix-socket work queue,
    any number of [optlsim work] processes lease intervals, replay them
    from the shared base + delta checkpoints and stream results back,
    and the server merges by capture index, so the report is
    byte-identical to an in-process run for any worker count and
    completion order. Dead workers' leases re-queue; a replay failure is
    a typed outcome that is retried, then quarantined. {!replay} and
    {!run_parallel} are the in-process pool the CLI's [replay] and
    [--sample-jobs] use. *)

module Sample := Ptl_sample.Sample
module Store := Ptl_store.Store
module Domain := Ptl_hyper.Domain
module Config := Ptl_ooo.Config

(** Conservative [sun_path] budget for the CLI's socket paths (real
    limits are 104-108 bytes). *)
val max_socket_path : int

(** {1 Wire protocol}

    The serve/work contract, spoken over a unix socket. The tests drive
    misbehaving peers (a worker that vanishes mid-lease, a server that
    dies) through it. *)

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

(** Send one framed message. *)
val send : Unix.file_descr -> 'a -> unit

(** Receive one framed message, at the type the protocol state expects.
    Raises [End_of_file] when the peer closed the connection. *)
val recv : Unix.file_descr -> 'a

(** What a {!serve} run produced. *)
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

(** Aggregate per-interval results (indexed by capture index, [None] for
    unmeasured windows) over the manifest's whole-run totals. *)
val merge : Store.manifest -> Sample.interval option array -> Sample.result

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
val serve :
  ?lease_timeout:float ->
  ?max_failures:int ->
  ?log:(string -> unit) ->
  ?config:Config.t -> socket:string -> Store.t -> served

(** One worker process: connect to a server at [connect], lease
    intervals, replay each from the store's base + delta checkpoints,
    stream results (or typed failures) back until the server says
    Finished. A server that vanishes {e after} this worker delivered
    results is a normal straggler shutdown; one that vanishes while the
    worker has delivered nothing is treated as a mid-run restart and
    the worker reconnects (up to [reconnects] times, through
    the connect backoff). Replies not arriving within
    [recv_timeout] seconds count as the server vanishing. [wrap]
    interposes on each replay's core instance (e.g. a guard
    supervisor). Returns the number of intervals this worker replayed. *)
val work :
  ?retries:int ->
  ?reconnects:int ->
  ?recv_timeout:float ->
  ?log:(string -> unit) ->
  ?wrap:(env:Ptl_arch.Env.t ->
         ctx:Ptl_arch.Context.t ->
         Ptl_ooo.Registry.instance -> Ptl_ooo.Registry.instance) ->
  connect:string -> unit -> (int, string) result

(** What an in-process {!replay} produced. *)
type replayed = {
  rp_result : Sample.result;
  rp_cached : int;  (** intervals answered from the result cache *)
  rp_replayed : int;  (** intervals successfully replayed this run *)
  rp_quarantined : (int * string list) list;
      (** intervals whose replay (or record load) failed, sorted by
          index — in-process replay is deterministic, so one attempt is
          the whole retry budget *)
}

(** Replay every interval of [store] in this process ([jobs] worker
    {!Stdlib.Domain}s; 1 = inline), using and refilling the result
    cache. Byte-identical to {!serve} + workers and to an in-process
    {!run_parallel} of the same capture. [config] overrides the
    manifest's machine configuration — the sweep engine's per-leg entry
    point: every leg
    replays the same checkpoints, cached under its own config digest.
    A corrupt interval record or a replay exception quarantines that
    interval ([rp_quarantined]) instead of aborting the run; only a
    missing/corrupt base image (nothing can replay) is a hard error. *)
val replay :
  ?jobs:int ->
  ?log:(string -> unit) ->
  ?config:Config.t ->
  ?wrap:(env:Ptl_arch.Env.t ->
         ctx:Ptl_arch.Context.t ->
         Ptl_ooo.Registry.instance -> Ptl_ooo.Registry.instance) ->
  Store.t -> (replayed, Store.error) result

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
val run_parallel :
  ?roi:bool ->
  ?placement:Sample.placement ->
  ?max_insns:int ->
  ?max_cycles:int ->
  ?jobs:int -> schedule:Sample.schedule -> Domain.t -> replayed
