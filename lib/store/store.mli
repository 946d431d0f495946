(** The durable interval store: a versioned, checksummed directory
    holding one sampled-simulation capture ([MANIFEST], a [base] image,
    one [interval-NNNNNN] delta checkpoint per measured window, and
    [result-DIGEST-NNNNNN] cached replay results keyed by config
    digest), so intervals outlive the capture process, captures resume
    from a journal, and worker processes replay them later. Every file
    carries magic, format version, record kind, length and CRC-32, so
    truncation, bit rot and version skew are typed {!error}s. *)

module Checkpoint := Ptl_hyper.Checkpoint
module Sample := Ptl_sample.Sample
module Config := Ptl_ooo.Config

(** Why a store file could not be read or written. *)
type error =
  | E_io of { path : string; reason : string }
  | E_bad_magic of { path : string }
  | E_bad_version of { path : string; found : int; expected : int }
  | E_bad_kind of { path : string; found : char; expected : char }
  | E_truncated of { path : string; wanted : int; got : int }
  | E_checksum of { path : string; stored : int32; computed : int32 }
  | E_bad_index of { index : int; count : int }

(** One-line diagnostic naming the file and what was wrong. *)
val error_to_string : error -> string

(** Hex digest of any plain-data value (workload programs, configs). *)
val digest_value : 'a -> string

(** Digest identifying a machine configuration — the result-cache key:
    replaying the same checkpoint under the same config is free. *)
val config_digest : Config.t -> string

(** What was captured, how, and the whole-run totals. *)
type manifest = {
  m_workload : string;  (** hex digest of the captured workload *)
  m_core : string;  (** core model the capture warmed for *)
  m_config : Config.t;
  m_config_digest : string;
  m_ff : int;
  m_warmup : int;
  m_measure : int;
  m_placement : string;  (** parseable by {!Sample.parse_placement} *)
  m_count : int;  (** intervals in the store *)
  m_total_insns : int;  (** master-pass totals, for the merged report *)
  m_total_cycles : int;
  m_delta_bytes : int;  (** page payload captured as deltas *)
  m_full_bytes : int;  (** what full per-window images would have cost *)
}

(** The sampling schedule the store was captured with. *)
val schedule : manifest -> Sample.schedule

(** An open, sealed store. *)
type t

(** The store's manifest. *)
val manifest : t -> manifest

(** The store's directory. *)
val dir : t -> string

(** On-disk file of interval record [index]. *)
val interval_path : t -> int -> string

(** On-disk file of the base record of the store in [dir] (with
    {!interval_path} and {!result_path}, what the corruption tests
    damage). *)
val base_path : string -> string

(** On-disk file of the result-cache entry for interval [index] under
    [config_digest]. *)
val result_path : t -> config_digest:string -> int -> string

(** Spill a finished capture pass into [dir]. The manifest is written
    last, so a crashed capture leaves a store that {!open_store}
    rejects instead of a silently short one. *)
val create :
  dir:string ->
  workload:string ->
  core:string ->
  schedule:Sample.schedule ->
  placement:string ->
  Sample.capture_run -> config:Config.t -> (t, error) result

(** An in-flight capture being journaled. *)
type journal

(** A resume point recovered from an interrupted capture's journal. *)
type partial = {
  pt_count : int;  (** valid journaled interval records (a prefix) *)
  pt_delta_bytes : int;  (** accounting over that prefix *)
  pt_full_bytes : int;
  pt_windows : (int * int) list;  (** per-window accounting, oldest first *)
  pt_base : Checkpoint.base;
  pt_last : Checkpoint.delta;  (** interval [pt_count - 1]: the resume state *)
  pt_workload : string;
  pt_core : string;
  pt_config_digest : string;
  pt_schedule : Sample.schedule;
  pt_placement : string;
}

(** Open a capture journal on [dir]. A fresh journal deletes any stale
    MANIFEST first (an interrupted re-capture must not masquerade as
    the previous complete store); [resume] primes the journal with a
    {!scan_partial} resume point instead, so the next
    {!journal_interval} continues at [pt_count]. *)
val begin_capture :
  dir:string ->
  workload:string ->
  core:string ->
  schedule:Sample.schedule ->
  placement:string ->
  config:Config.t -> ?resume:partial -> unit -> (journal, error) result

(** Journal the shared base image (once, before any interval). *)
val journal_base : journal -> Checkpoint.base -> (unit, error) result

(** Journal one captured window as it lands: the interval record first,
    then the PROGRESS update — so a crash between the two merely
    recaptures (and identically rewrites) the last window on resume.
    [index] must be the next unjournaled window. *)
val journal_interval :
  journal ->
  index:int ->
  delta_bytes:int ->
  full_bytes:int -> Checkpoint.delta -> (unit, error) result

(** Seal a journaled capture: write the MANIFEST (readers now see a
    complete store) and retire the PROGRESS record. *)
val finish_capture :
  journal -> total_insns:int -> total_cycles:int -> (t, error) result

(** Recover a resume point from an interrupted capture. [Ok None] =
    nothing usable (no journal, torn progress/base, or no valid
    interval record yet) — start fresh. The resumable prefix is the
    longest run of valid interval records from 0, capped by what the
    progress record accounts for; anything past it (a record published
    ahead of its progress update, or torn mid-write) is recaptured
    deterministically. *)
val scan_partial : dir:string -> (partial option, error) result

(** Open a sealed store, validating its manifest. *)
val open_store : dir:string -> (t, error) result

(** Read and check the base record. *)
val load_base : t -> (Checkpoint.base, error) result

(** Read and check interval record [index]. *)
val load_interval : t -> int -> (Checkpoint.delta, error) result

(** Cache the replay result of interval [index] under [config_digest]
    (atomically: write to a temporary file, then rename). *)
val put_result :
  t ->
  config_digest:string ->
  index:int -> Sample.interval option -> (unit, error) result

(** Every cached result for [config_digest], by index — what a server
    preloads so repeated runs of the same (store, config) are free. *)
val cached_results :
  t -> config_digest:string -> (int * Sample.interval option) list

(** Every distinct config digest with at least one readable result-cache
    entry, sorted — how a sweep reports which legs are already paid for.
    Unreadable entries are skipped (the cache fails open). *)
val cached_digests : t -> String.t list

(** One-paragraph description of a store (CLI [capture]/[serve] logs). *)
val describe : t -> string
