(** The durable interval store: a versioned, checksummed on-disk home
    for one sampled-simulation capture, so interval sets outlive the
    master process, runs are resumable, and worker *processes* — local
    or across a shared filesystem, exactly like the paper's
    cluster-distributed PTLsim/X checkpoint workflow — can replay
    measured intervals long after the capture pass exited.

    A store is a directory:

    {v
    MANIFEST            workload/core/config/schedule identity + totals
    base                shared base image (guest memory + warmed uarch)
    interval-NNNNNN     one delta checkpoint per measured window
    result-DIGEST-NNNNNN  cached replay results, keyed by config digest
    v}

    Intervals are keyed by [(workload digest, schedule, capture
    index)]: the manifest pins the first two, the file name carries the
    index. Every file is framed by a fixed header — magic, format
    version, a record-kind tag, payload length and a CRC-32 of the
    payload — so truncation, bit rot and version skew are each rejected
    with a typed {!error} before a corrupt checkpoint can poison a
    replay. The result cache makes repeated runs of the same
    [(checkpoint, config)] pair free.

    Payloads are [Marshal]-encoded plain data (no closures: flags []),
    written by the same binary family that reads them — the usual
    OCaml-marshal compatibility contract, guarded by the explicit
    format version in the header. *)

module Checkpoint = Ptl_hyper.Checkpoint
module Sample = Ptl_sample.Sample
module Config = Ptl_ooo.Config
module Crc32 = Ptl_util.Crc32
module Chaos = Ptl_chaos.Chaos

(* ---------------------------------------------------------------- *)
(* Errors                                                            *)
(* ---------------------------------------------------------------- *)

type error =
  | E_io of { path : string; reason : string }
  | E_bad_magic of { path : string }
  | E_bad_version of { path : string; found : int; expected : int }
  | E_bad_kind of { path : string; found : char; expected : char }
  | E_truncated of { path : string; wanted : int; got : int }
  | E_checksum of { path : string; stored : int32; computed : int32 }
  | E_bad_index of { index : int; count : int }

let error_to_string = function
  | E_io { path; reason } -> Printf.sprintf "store: %s: %s" path reason
  | E_bad_magic { path } ->
    Printf.sprintf "store: %s: not an optlsim store file (bad magic)" path
  | E_bad_version { path; found; expected } ->
    Printf.sprintf
      "store: %s: format version %d, this build reads version %d \
       (re-capture the store)"
      path found expected
  | E_bad_kind { path; found; expected } ->
    Printf.sprintf "store: %s: record kind %C where %C was expected" path
      found expected
  | E_truncated { path; wanted; got } ->
    Printf.sprintf "store: %s: truncated (%d payload bytes of %d)" path got
      wanted
  | E_checksum { path; stored; computed } ->
    Printf.sprintf
      "store: %s: payload checksum mismatch (stored %08lx, computed %08lx) \
       — file is corrupt"
      path stored computed
  | E_bad_index { index; count } ->
    Printf.sprintf "store: interval index %d out of range (store holds %d)"
      index count

let ( let* ) r f = match r with Error _ as e -> e | Ok x -> f x

(* ---------------------------------------------------------------- *)
(* Framed, checksummed records                                       *)
(* ---------------------------------------------------------------- *)

let magic = "OPTLSTOR"
let version = 1

(* magic(8) + version(2 LE) + kind(1) + payload length(8 LE) + crc(4 LE) *)
let header_size = 8 + 2 + 1 + 8 + 4

let kind_manifest = 'M'
let kind_base = 'B'
let kind_interval = 'I'
let kind_result = 'R'
let kind_progress = 'P'

(* Temp names are unique per (process, atomic counter): two workers
   racing to cache the same (config-digest, index) entry must never
   share a .tmp file, or their interleaved writes tear the record both
   renames then publish. With private temp files each rename installs
   a complete record atomically — whichever lands last wins and the
   entry stays readable. *)
let tmp_counter = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let write_record ~path ~kind payload =
  (* chaos instrumentation: record writes are a fault-matrix cell.
     Fail = the caller sees a typed I/O error; Drop = the write is
     silently lost (acknowledged but absent); Flip_bit corrupts the
     payload AFTER the CRC is computed, so the torn record is caught at
     read time; Truncate publishes a torn record, then the process
     dies, the crash the resumable-capture journal recovers from. *)
  let fault =
    Chaos.fire
      (if kind = kind_result then "store.result.write" else "store.write")
  in
  match fault with
  | Some Chaos.Kill ->
    raise (Chaos.Killed (Printf.sprintf "store.write %s" path))
  | Some Chaos.Fail ->
    Error (E_io { path; reason = "chaos: injected write failure" })
  | Some Chaos.Drop -> Ok ()
  | (None | Some (Chaos.Delay _ | Chaos.Truncate | Chaos.Flip_bit _)) as fault
    -> (
    let payload_out =
      match fault with
      | Some (Chaos.Flip_bit b) when String.length payload > 0 ->
        let b = b mod (String.length payload * 8) in
        let bytes = Bytes.of_string payload in
        Bytes.set bytes (b / 8)
          (Char.chr (Char.code (Bytes.get bytes (b / 8)) lxor (1 lsl (b mod 8))));
        Bytes.to_string bytes
      | Some Chaos.Truncate -> String.sub payload 0 (String.length payload / 2)
      | _ -> payload
    in
    try
      let tmp = tmp_name path in
      let oc = open_out_bin tmp in
      let hdr = Buffer.create header_size in
      Buffer.add_string hdr magic;
      Buffer.add_uint16_le hdr version;
      Buffer.add_char hdr kind;
      Buffer.add_int64_le hdr (Int64.of_int (String.length payload));
      Buffer.add_int32_le hdr (Crc32.string payload);
      Buffer.output_buffer oc hdr;
      output_string oc payload_out;
      close_out oc;
      Sys.rename tmp path;
      if fault = Some Chaos.Truncate then
        raise (Chaos.Killed (Printf.sprintf "store.write %s (torn)" path));
      Ok ()
    with Sys_error reason -> Error (E_io { path; reason }))

let read_record ~path ~kind =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let raw = really_input_string ic size in
        raw)
  with
  | exception Sys_error reason -> Error (E_io { path; reason })
  | raw ->
    if String.length raw < header_size then
      Error (E_truncated { path; wanted = header_size; got = String.length raw })
    else if String.sub raw 0 8 <> magic then Error (E_bad_magic { path })
    else begin
      let found_version = String.get_uint16_le raw 8 in
      if found_version <> version then
        Error (E_bad_version { path; found = found_version; expected = version })
      else begin
        let found_kind = raw.[10] in
        if found_kind <> kind then
          Error (E_bad_kind { path; found = found_kind; expected = kind })
        else begin
          let len = Int64.to_int (String.get_int64_le raw 11) in
          let got = String.length raw - header_size in
          if got <> len then Error (E_truncated { path; wanted = len; got })
          else begin
            let stored = String.get_int32_le raw 19 in
            let computed = Crc32.update Crc32.empty raw ~pos:header_size ~len in
            if stored <> computed then
              Error (E_checksum { path; stored; computed })
            else Ok (String.sub raw header_size len)
          end
        end
      end
    end

let marshal v = Marshal.to_string v []

let write_value ~path ~kind v = write_record ~path ~kind (marshal v)

(* The kind tag is checked before unmarshaling, so a payload can only be
   decoded at the type it was encoded at. *)
let read_value ~path ~kind =
  let* payload = read_record ~path ~kind in
  match Marshal.from_string payload 0 with
  | v -> Ok v
  | exception Failure reason -> Error (E_io { path; reason })

(* ---------------------------------------------------------------- *)
(* Digests                                                           *)
(* ---------------------------------------------------------------- *)

(** Hex digest of any plain-data value (workload programs, configs). *)
let digest_value v = Digest.to_hex (Digest.string (marshal v))

(** Digest identifying a machine configuration — the result-cache key:
    replaying the same checkpoint under the same config is free. *)
let config_digest (c : Config.t) = digest_value c

(* ---------------------------------------------------------------- *)
(* Manifest and layout                                               *)
(* ---------------------------------------------------------------- *)

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

let schedule m =
  { Sample.ff_insns = m.m_ff; warmup_insns = m.m_warmup; measure_insns = m.m_measure }

type t = { dir : string; manifest : manifest }

let manifest t = t.manifest
let dir t = t.dir
let manifest_path dir = Filename.concat dir "MANIFEST"
let base_path dir = Filename.concat dir "base"

let interval_name index = Printf.sprintf "interval-%06d" index
let interval_path t index = Filename.concat t.dir (interval_name index)

(* Result-cache file names carry a digest prefix for humans; the full
   digest inside the payload is what is actually verified. *)
let result_name ~config_digest index =
  Printf.sprintf "result-%s-%06d" (String.sub config_digest 0 12) index

let result_path t ~config_digest index =
  Filename.concat t.dir (result_name ~config_digest index)

(** What a result-cache record stores: the full config digest it was
    replayed under plus the interval (None = the guest halted before
    committing a measured instruction — also worth caching). *)
type stored_result = {
  sr_config_digest : string;
  sr_index : int;
  sr_interval : Sample.interval option;
}

(* ---------------------------------------------------------------- *)
(* Writing a store                                                   *)
(* ---------------------------------------------------------------- *)

let mkdir_p dir =
  let rec mk d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  mk dir;
  if Sys.file_exists dir && Sys.is_directory dir then Ok ()
  else Error (E_io { path = dir; reason = "cannot create store directory" })

(** Spill a finished capture pass into [dir]. The manifest is written
    last, so a crashed capture leaves a store that {!open_store}
    rejects instead of a silently short one. *)
let create ~dir ~workload ~core ~(schedule : Sample.schedule) ~placement
    (cr : Sample.capture_run) ~(config : Config.t) =
  let* () = mkdir_p dir in
  let* () = write_value ~path:(base_path dir) ~kind:kind_base cr.Sample.cr_base in
  let count = Array.length cr.Sample.cr_deltas in
  let rec write_intervals i =
    if i >= count then Ok ()
    else
      let path = Filename.concat dir (interval_name i) in
      let* () = write_value ~path ~kind:kind_interval cr.Sample.cr_deltas.(i) in
      write_intervals (i + 1)
  in
  let* () = write_intervals 0 in
  let m =
    {
      m_workload = workload;
      m_core = core;
      m_config = config;
      m_config_digest = config_digest config;
      m_ff = schedule.Sample.ff_insns;
      m_warmup = schedule.Sample.warmup_insns;
      m_measure = schedule.Sample.measure_insns;
      m_placement = placement;
      m_count = count;
      m_total_insns = cr.Sample.cr_insns;
      m_total_cycles = cr.Sample.cr_cycles;
      m_delta_bytes = cr.Sample.cr_delta_bytes;
      m_full_bytes = cr.Sample.cr_full_bytes;
    }
  in
  let* () = write_value ~path:(manifest_path dir) ~kind:kind_manifest m in
  Ok { dir; manifest = m }

(* ---------------------------------------------------------------- *)
(* The capture journal: resumable captures                           *)
(* ---------------------------------------------------------------- *)

(* While a capture is in flight the directory holds the base, the
   interval records journaled so far, and a PROGRESS record (kind 'P',
   rewritten atomically after every window) carrying the capture's
   identity plus per-window byte accounting. The MANIFEST only appears
   at [finish_capture] — a crashed capture is never mistaken for a
   complete store — and [scan_partial] turns the journal back into a
   resume point: the longest valid prefix of interval records wins, so
   a record torn mid-write simply gets recaptured. *)

let progress_path dir = Filename.concat dir "PROGRESS"

(** The on-disk progress payload. [pg_windows] carries one
    (delta_bytes, full_bytes) pair per journaled window, oldest first
    — the accounting the final manifest sums, reconstructible for any
    resume prefix. *)
type progress = {
  pg_workload : string;
  pg_core : string;
  pg_config_digest : string;
  pg_ff : int;
  pg_warmup : int;
  pg_measure : int;
  pg_placement : string;
  pg_windows : (int * int) list;
}

(** An in-flight capture being journaled. *)
type journal = {
  j_dir : string;
  j_workload : string;
  j_core : string;
  j_config : Config.t;
  j_schedule : Sample.schedule;
  j_placement : string;
  mutable j_windows : (int * int) list;  (* newest first *)
}

let write_progress j =
  write_value ~path:(progress_path j.j_dir) ~kind:kind_progress
    {
      pg_workload = j.j_workload;
      pg_core = j.j_core;
      pg_config_digest = config_digest j.j_config;
      pg_ff = j.j_schedule.Sample.ff_insns;
      pg_warmup = j.j_schedule.Sample.warmup_insns;
      pg_measure = j.j_schedule.Sample.measure_insns;
      pg_placement = j.j_placement;
      pg_windows = List.rev j.j_windows;
    }

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
let begin_capture ~dir ~workload ~core ~(schedule : Sample.schedule)
    ~placement ~(config : Config.t) ?resume () =
  let* () = mkdir_p dir in
  match resume with
  | Some pt ->
    Ok
      {
        j_dir = dir;
        j_workload = workload;
        j_core = core;
        j_config = config;
        j_schedule = schedule;
        j_placement = placement;
        j_windows = List.rev pt.pt_windows;
      }
  | None ->
    if Sys.file_exists (manifest_path dir) then
      (try Sys.remove (manifest_path dir) with Sys_error _ -> ());
    Ok
      {
        j_dir = dir;
        j_workload = workload;
        j_core = core;
        j_config = config;
        j_schedule = schedule;
        j_placement = placement;
        j_windows = [];
      }

(** Journal the shared base image (once, before any interval). *)
let journal_base j (base : Checkpoint.base) =
  let* () = write_value ~path:(base_path j.j_dir) ~kind:kind_base base in
  write_progress j

(** Journal one captured window as it lands: the interval record first,
    then the PROGRESS update — so a crash between the two merely
    recaptures (and identically rewrites) the last window on resume.
    [index] must be the next unjournaled window. *)
let journal_interval j ~index ~delta_bytes ~full_bytes
    (d : Checkpoint.delta) =
  let expected = List.length j.j_windows in
  if index <> expected then Error (E_bad_index { index; count = expected })
  else begin
    let path = Filename.concat j.j_dir (interval_name index) in
    let* () = write_value ~path ~kind:kind_interval d in
    j.j_windows <- (delta_bytes, full_bytes) :: j.j_windows;
    write_progress j
  end

(** Seal a journaled capture: write the MANIFEST (readers now see a
    complete store) and retire the PROGRESS record. *)
let finish_capture j ~total_insns ~total_cycles =
  let windows = List.rev j.j_windows in
  let m =
    {
      m_workload = j.j_workload;
      m_core = j.j_core;
      m_config = j.j_config;
      m_config_digest = config_digest j.j_config;
      m_ff = j.j_schedule.Sample.ff_insns;
      m_warmup = j.j_schedule.Sample.warmup_insns;
      m_measure = j.j_schedule.Sample.measure_insns;
      m_placement = j.j_placement;
      m_count = List.length windows;
      m_total_insns = total_insns;
      m_total_cycles = total_cycles;
      m_delta_bytes = List.fold_left (fun a (d, _) -> a + d) 0 windows;
      m_full_bytes = List.fold_left (fun a (_, f) -> a + f) 0 windows;
    }
  in
  let* () = write_value ~path:(manifest_path j.j_dir) ~kind:kind_manifest m in
  (try Sys.remove (progress_path j.j_dir) with Sys_error _ -> ());
  Ok { dir = j.j_dir; manifest = m }

(** Recover a resume point from an interrupted capture. [Ok None] =
    nothing usable (no journal, torn progress/base, or no valid
    interval record yet) — start fresh. The resumable prefix is the
    longest run of valid interval records from 0, capped by what the
    progress record accounts for; anything past it (a record published
    ahead of its progress update, or torn mid-write) is recaptured
    deterministically. *)
let scan_partial ~dir : (partial option, error) result =
  if not (Sys.file_exists (progress_path dir)) then Ok None
  else
    match read_value ~path:(progress_path dir) ~kind:kind_progress with
    | Error _ -> Ok None
    | Ok (pg : progress) -> (
      match read_value ~path:(base_path dir) ~kind:kind_base with
      | Error _ -> Ok None
      | Ok (base : Checkpoint.base) -> (
        let limit = List.length pg.pg_windows in
        let rec prefix i last =
          if i >= limit then (i, last)
          else
            match
              read_value
                ~path:(Filename.concat dir (interval_name i))
                ~kind:kind_interval
            with
            | Ok (d : Checkpoint.delta) -> prefix (i + 1) (Some d)
            | Error _ -> (i, last)
        in
        let count, last = prefix 0 None in
        match last with
        | None -> Ok None
        | Some pt_last ->
          let windows = List.filteri (fun i _ -> i < count) pg.pg_windows in
          Ok
            (Some
               {
                 pt_count = count;
                 pt_delta_bytes =
                   List.fold_left (fun a (d, _) -> a + d) 0 windows;
                 pt_full_bytes =
                   List.fold_left (fun a (_, f) -> a + f) 0 windows;
                 pt_windows = windows;
                 pt_base = base;
                 pt_last;
                 pt_workload = pg.pg_workload;
                 pt_core = pg.pg_core;
                 pt_config_digest = pg.pg_config_digest;
                 pt_schedule =
                   {
                     Sample.ff_insns = pg.pg_ff;
                     warmup_insns = pg.pg_warmup;
                     measure_insns = pg.pg_measure;
                   };
                 pt_placement = pg.pg_placement;
               })))

(* ---------------------------------------------------------------- *)
(* Reading a store                                                   *)
(* ---------------------------------------------------------------- *)

let open_store ~dir =
  let* (m : manifest) =
    read_value ~path:(manifest_path dir) ~kind:kind_manifest
  in
  Ok { dir; manifest = m }

let load_base t : (Checkpoint.base, error) result =
  read_value ~path:(base_path t.dir) ~kind:kind_base

let load_interval t index : (Checkpoint.delta, error) result =
  if index < 0 || index >= t.manifest.m_count then
    Error (E_bad_index { index; count = t.manifest.m_count })
  else read_value ~path:(interval_path t index) ~kind:kind_interval

(* ---------------------------------------------------------------- *)
(* Result cache                                                      *)
(* ---------------------------------------------------------------- *)

let put_result t ~config_digest ~index (iv : Sample.interval option) =
  if index < 0 || index >= t.manifest.m_count then
    Error (E_bad_index { index; count = t.manifest.m_count })
  else
    write_value
      ~path:(result_path t ~config_digest index)
      ~kind:kind_result
      { sr_config_digest = config_digest; sr_index = index; sr_interval = iv }

(** Every cached result for [config_digest], by index — what a server
    preloads so repeated runs of the same (store, config) are free. An
    unreadable or mismatched entry counts as not cached: the cache is an
    optimization, so a bad entry means "replay again", never "fail the
    run". *)
let cached_results t ~config_digest =
  List.filter_map
    (fun index ->
      let path = result_path t ~config_digest index in
      if not (Sys.file_exists path) then None
      else
        match read_value ~path ~kind:kind_result with
        | Ok (sr : stored_result)
          when sr.sr_config_digest = config_digest && sr.sr_index = index ->
          Some (index, sr.sr_interval)
        | Ok _ | Error _ -> None)
    (List.init t.manifest.m_count Fun.id)

(** Every distinct config digest with at least one readable result-cache
    entry, sorted — how a sweep reports which legs are already paid for.
    Unreadable entries are skipped (the cache fails open). *)
let cached_digests t =
  let digests = Hashtbl.create 8 in
  (match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if String.length f > 7 && String.sub f 0 7 = "result-" then begin
          let path = Filename.concat t.dir f in
          match read_value ~path ~kind:kind_result with
          | Ok (sr : stored_result) ->
            Hashtbl.replace digests sr.sr_config_digest ()
          | Error _ -> ()
        end)
      files);
  List.sort String.compare (Hashtbl.fold (fun d () acc -> d :: acc) digests [])

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)
(* ---------------------------------------------------------------- *)

(** One-paragraph description of a store (CLI [capture]/[serve] logs). *)
let describe t =
  let m = t.manifest in
  Printf.sprintf
    "store %s: %d interval(s), workload %s, core %s, schedule \
     ff=%d/warmup=%d/measure=%d, placement %s, capture %d bytes as deltas \
     (full images: %d bytes)"
    t.dir m.m_count
    (String.sub m.m_workload 0 (min 12 (String.length m.m_workload)))
    m.m_core m.m_ff m.m_warmup m.m_measure m.m_placement m.m_delta_bytes
    m.m_full_bytes
