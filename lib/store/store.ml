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
                        and the identity of the capture that wrote it
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

(* Version 2: [Phys_mem.t] (marshalled inside the base checkpoint) gained
   the page-table watch fields and moved to an int-keyed frame table; a
   version-1 base would unmarshal into the wrong shape. Version 3: the
   base record carries the capture's identity around the checkpoint. *)
let version = 3

(* magic(8) + version(2 LE) + kind(1) + payload length(8 LE) + crc(4 LE) *)
let header_size = 8 + 2 + 1 + 8 + 4

let kind_manifest = 'M'
let kind_base = 'B'
let kind_interval = 'I'
let kind_result = 'R'

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

(* Records are read and written through [Unix] file descriptors, not
   channels: a channel carries a 64 KB buffer outside the OCaml heap that
   is freed only when the GC finalizes it, and a replay opens dozens of
   records per interval. Errors read as the channel functions' did:
   "PATH: REASON" when the file cannot be opened, "REASON" after. *)
let open_fd path flags perm =
  try Unix.openfile path (Unix.O_CLOEXEC :: flags) perm
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let with_fd fd f =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try f () with Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e)))

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
      let hdr = Bytes.create header_size in
      Bytes.blit_string magic 0 hdr 0 8;
      Bytes.set_uint16_le hdr 8 version;
      Bytes.set hdr 10 kind;
      Bytes.set_int64_le hdr 11 (Int64.of_int (String.length payload));
      Bytes.set_int32_le hdr 19 (Crc32.string payload);
      let fd = open_fd tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o666 in
      with_fd fd (fun () ->
          ignore (Unix.write fd hdr 0 header_size : int);
          ignore (Unix.write_substring fd payload_out 0 (String.length payload_out) : int));
      Sys.rename tmp path;
      if fault = Some Chaos.Truncate then
        raise (Chaos.Killed (Printf.sprintf "store.write %s (torn)" path));
      Ok ()
    with Sys_error reason -> Error (E_io { path; reason }))

(* Reads and validates a whole record. The payload is the suffix of the
   returned string from [header_size] on, decoded in place so a large
   base checkpoint is not copied a second time. *)
let read_record ~path ~kind =
  match
    let fd = open_fd path [ Unix.O_RDONLY ] 0 in
    with_fd fd (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create size in
        (* a file that shrank under us reads short, and fails the
           length check below as truncated *)
        let rec fill off =
          let n = if off < size then Unix.read fd buf off (size - off) else 0 in
          if n = 0 then off else fill (off + n)
        in
        let got = fill 0 in
        if got = size then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got)
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
            else Ok raw
          end
        end
      end
    end

let marshal v = Marshal.to_string v []

let write_value ~path ~kind v = write_record ~path ~kind (marshal v)

(* The kind tag is checked before unmarshaling, so a payload can only be
   decoded at the type it was encoded at. *)
let read_value ~path ~kind =
  let* raw = read_record ~path ~kind in
  match Marshal.from_string raw header_size with
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
(* Writing a store: the capture journal                              *)
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

(* While a capture is in flight the directory holds the base record
   (which carries the capture's identity) and the interval records
   journaled so far. The MANIFEST only appears at [finish_capture] — a
   crashed capture is never mistaken for a complete store — and
   [scan_partial] turns the journal back into a resume point: the
   longest valid prefix of interval records wins, so a record torn
   mid-write simply gets recaptured. A fresh capture first clears the
   store's own files, so every record on disk belongs to the capture
   that wrote the base. *)

(** The base record's payload: the shared image plus what was captured
    and how, so a journal identifies itself without a manifest. *)
type stored_base = {
  sb_workload : string;
  sb_core : string;
  sb_config_digest : string;
  sb_schedule : Sample.schedule;
  sb_placement : string;
  sb_base : Checkpoint.base;
}

(** An in-flight capture being journaled, with running sums of the
    capture-cost accounting over the intervals journaled so far. *)
type journal = {
  j_dir : string;
  j_workload : string;
  j_core : string;
  j_config : Config.t;
  j_schedule : Sample.schedule;
  j_placement : string;
  mutable j_count : int;
  mutable j_delta_bytes : int;
  mutable j_full_bytes : int;
}

(** A resume point recovered from an interrupted capture's journal. *)
type partial = {
  pt_resume : Sample.resume_point;
  pt_delta_bytes : int;  (** accounting over the journaled prefix *)
  pt_full_bytes : int;
  pt_workload : string;
  pt_core : string;
  pt_config_digest : string;
  pt_schedule : Sample.schedule;
  pt_placement : string;
}

(* Delete the store files in [dir]: MANIFEST and base first, so a clear
   cut short leaves neither a complete store nor a resumable journal. *)
let clear dir =
  let remove f =
    let path = Filename.concat dir f in
    match Sys.remove path with
    | () -> Ok ()
    | exception Sys_error reason ->
      if Sys.file_exists path then Error (E_io { path; reason }) else Ok ()
  in
  match Sys.readdir dir with
  | exception Sys_error reason -> Error (E_io { path = dir; reason })
  | files ->
    let records =
      List.filter
        (fun f ->
          String.starts_with ~prefix:"interval-" f
          || String.starts_with ~prefix:"result-" f)
        (Array.to_list files)
    in
    List.fold_left
      (fun acc f ->
        let* () = acc in
        remove f)
      (Ok ())
      ("MANIFEST" :: "base" :: records)

(** Open a capture journal on [dir]. A fresh journal first deletes the
    store files already there (MANIFEST and base first, then interval
    records and cached results), so neither a previous store nor its
    result cache outlives the re-capture; [resume] primes the journal
    with a {!scan_partial} resume point instead, so the next
    {!journal_interval} continues at its count. *)
let begin_capture ~dir ~workload ~core ~(schedule : Sample.schedule)
    ~placement ~(config : Config.t) ?resume () =
  let* () = mkdir_p dir in
  let* count, delta_bytes, full_bytes =
    match resume with
    | None ->
      let* () = clear dir in
      Ok (0, 0, 0)
    | Some pt ->
      Ok (pt.pt_resume.Sample.rs_count, pt.pt_delta_bytes, pt.pt_full_bytes)
  in
  Ok
    {
      j_dir = dir;
      j_workload = workload;
      j_core = core;
      j_config = config;
      j_schedule = schedule;
      j_placement = placement;
      j_count = count;
      j_delta_bytes = delta_bytes;
      j_full_bytes = full_bytes;
    }

(** Journal the shared base image (once, before any interval). *)
let journal_base j (base : Checkpoint.base) =
  write_value ~path:(base_path j.j_dir) ~kind:kind_base
    {
      sb_workload = j.j_workload;
      sb_core = j.j_core;
      sb_config_digest = config_digest j.j_config;
      sb_schedule = j.j_schedule;
      sb_placement = j.j_placement;
      sb_base = base;
    }

(** Journal one captured window as it lands. [index] must be the next
    unjournaled window. *)
let journal_interval j ~index (d : Checkpoint.delta) =
  if index <> j.j_count then Error (E_bad_index { index; count = j.j_count })
  else begin
    let path = Filename.concat j.j_dir (interval_name index) in
    let* () = write_value ~path ~kind:kind_interval d in
    j.j_count <- index + 1;
    j.j_delta_bytes <- j.j_delta_bytes + Checkpoint.delta_page_bytes d;
    j.j_full_bytes <- j.j_full_bytes + Checkpoint.full_page_bytes d;
    Ok ()
  end

(** Seal a journaled capture: write the MANIFEST, after which readers
    see a complete store. *)
let finish_capture j ~total_insns ~total_cycles =
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
      m_count = j.j_count;
      m_total_insns = total_insns;
      m_total_cycles = total_cycles;
      m_delta_bytes = j.j_delta_bytes;
      m_full_bytes = j.j_full_bytes;
    }
  in
  let* () = write_value ~path:(manifest_path j.j_dir) ~kind:kind_manifest m in
  Ok { dir = j.j_dir; manifest = m }

(** Spill a finished capture pass into [dir] through the journal. The
    manifest is written last, so a crashed capture leaves a store that
    {!open_store} rejects instead of a silently short one. *)
let create ~dir ~workload ~core ~schedule ~placement (cr : Sample.capture_run)
    ~config =
  let* j = begin_capture ~dir ~workload ~core ~schedule ~placement ~config () in
  let* () = journal_base j cr.Sample.cr_base in
  let rec intervals i =
    if i >= Array.length cr.Sample.cr_deltas then Ok ()
    else
      let* () = journal_interval j ~index:i cr.Sample.cr_deltas.(i) in
      intervals (i + 1)
  in
  let* () = intervals 0 in
  finish_capture j ~total_insns:cr.Sample.cr_insns
    ~total_cycles:cr.Sample.cr_cycles

(** Recover a resume point from an interrupted capture. [Ok None] =
    nothing usable (a sealed store, no or a torn base, or no valid
    interval record yet) — start fresh. The resumable prefix is the
    longest run of valid interval records from 0; anything past it
    (torn mid-write) is recaptured deterministically. *)
let scan_partial ~dir : (partial option, error) result =
  if Sys.file_exists (manifest_path dir) then Ok None
  else
    match read_value ~path:(base_path dir) ~kind:kind_base with
    | Error _ -> Ok None
    | Ok (sb : stored_base) -> (
      let rec prefix i last delta_bytes full_bytes =
        match
          read_value ~path:(Filename.concat dir (interval_name i)) ~kind:kind_interval
        with
        | Ok (d : Checkpoint.delta) ->
          prefix (i + 1) (Some d)
            (delta_bytes + Checkpoint.delta_page_bytes d)
            (full_bytes + Checkpoint.full_page_bytes d)
        | Error _ ->
          Option.map
            (fun rs_last ->
              {
                pt_resume = { Sample.rs_base = sb.sb_base; rs_last; rs_count = i };
                pt_delta_bytes = delta_bytes;
                pt_full_bytes = full_bytes;
                pt_workload = sb.sb_workload;
                pt_core = sb.sb_core;
                pt_config_digest = sb.sb_config_digest;
                pt_schedule = sb.sb_schedule;
                pt_placement = sb.sb_placement;
              })
            last
      in
      Ok (prefix 0 None 0 0))

(* ---------------------------------------------------------------- *)
(* Reading a store                                                   *)
(* ---------------------------------------------------------------- *)

let open_store ~dir =
  let* (m : manifest) =
    read_value ~path:(manifest_path dir) ~kind:kind_manifest
  in
  Ok { dir; manifest = m }

let load_base t : (Checkpoint.base, error) result =
  let* (sb : stored_base) = read_value ~path:(base_path t.dir) ~kind:kind_base in
  Ok sb.sb_base

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
        if String.starts_with ~prefix:"result-" f then begin
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
