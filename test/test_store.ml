(* Durable interval store tests (lib/store): a capture round-trips
   through disk byte-for-byte (replaying a disk-loaded base + delta
   equals replaying the in-memory one), and every corruption mode —
   truncation, bit rot, wrong magic, wrong version, wrong record kind,
   out-of-range index — is rejected with the right typed error instead
   of a crash or a silently wrong replay. *)

module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Config = Ptl_ooo.Config

let schedule =
  { Sample.ff_insns = 6_000; warmup_insns = 800; measure_insns = 1_200 }

(* one small capture, shared by every test (read-only apart from the
   per-test scratch copies) *)
let capture =
  lazy
    (let d, _ = Test_checkpoint.bare_loop ~iters:20_000 () in
     Sample.run_capture ~schedule d)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "optlsim_store_test_%d_%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

let make_store () =
  let cr = Lazy.force capture in
  match
    Store.create ~dir:(fresh_dir ()) ~workload:"test-workload" ~core:"ooo"
      ~schedule ~placement:"fixed" cr ~config:Config.tiny
  with
  | Ok s -> s
  | Error e -> Alcotest.fail (Store.error_to_string e)

let err_name = function
  | Store.E_io _ -> "io"
  | Store.E_bad_magic _ -> "bad_magic"
  | Store.E_bad_version _ -> "bad_version"
  | Store.E_bad_kind _ -> "bad_kind"
  | Store.E_truncated _ -> "truncated"
  | Store.E_checksum _ -> "checksum"
  | Store.E_bad_index _ -> "bad_index"

let check_error name expected = function
  | Ok _ -> Alcotest.fail (name ^ ": accepted corrupt data")
  | Error e ->
    Alcotest.(check string) name expected (err_name e);
    (* every error renders a diagnostic *)
    Alcotest.(check bool) (name ^ ": message") true
      (String.length (Store.error_to_string e) > 0)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* round trip: manifest survives reopen, and a disk-loaded base + delta
   replays to the same interval record as the in-memory capture *)
let test_round_trip () =
  let cr = Lazy.force capture in
  let st = make_store () in
  let st =
    match Store.open_store ~dir:(Store.dir st) with
    | Ok s -> s
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let m = Store.manifest st in
  Alcotest.(check int) "interval count" (Array.length cr.Sample.cr_deltas)
    m.Store.m_count;
  Alcotest.(check string) "workload digest" "test-workload" m.Store.m_workload;
  Alcotest.(check bool) "delta accounting recorded" true
    (m.Store.m_delta_bytes > 0
    && m.Store.m_delta_bytes < m.Store.m_full_bytes);
  Alcotest.(check bool) "schedule survives" true (Store.schedule m = schedule);
  let base =
    match Store.load_base st with
    | Ok b -> b
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let dk =
    match Store.load_interval st 1 with
    | Ok d -> d
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let from_disk =
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
      ~index:1 ~base dk
  in
  let from_memory =
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
      ~index:1 ~base:cr.Sample.cr_base cr.Sample.cr_deltas.(1)
  in
  Alcotest.(check bool) "interval measured" true (from_disk <> None);
  Alcotest.(check bool) "disk replay = memory replay" true
    (from_disk = from_memory)

let test_bad_index () =
  let st = make_store () in
  let m = Store.manifest st in
  check_error "index past the end" "bad_index"
    (Store.load_interval st m.Store.m_count);
  check_error "negative index" "bad_index" (Store.load_interval st (-1))

let test_truncation () =
  let st = make_store () in
  let path = Store.interval_path st 0 in
  let raw = read_file path in
  (* cut mid-payload *)
  write_file path (String.sub raw 0 (String.length raw - 7));
  check_error "truncated payload" "truncated" (Store.load_interval st 0);
  (* cut mid-header *)
  write_file path (String.sub raw 0 5);
  check_error "truncated header" "truncated" (Store.load_interval st 0)

let test_bit_flip () =
  let st = make_store () in
  let path = Store.interval_path st 0 in
  let raw = read_file path in
  let b = Bytes.of_string raw in
  (* flip one payload bit, well past the header *)
  let pos = Bytes.length b - 11 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  write_file path (Bytes.to_string b);
  check_error "payload bit flip" "checksum" (Store.load_interval st 0)

let test_bad_magic_and_version () =
  let st = make_store () in
  let path = Store.interval_path st 0 in
  let raw = read_file path in
  let b = Bytes.of_string raw in
  Bytes.set b 0 'X';
  write_file path (Bytes.to_string b);
  check_error "bad magic" "bad_magic" (Store.load_interval st 0);
  let b = Bytes.of_string raw in
  (* version field is the little-endian u16 at offset 8 *)
  Bytes.set_uint16_le b 8 99;
  write_file path (Bytes.to_string b);
  check_error "future version" "bad_version" (Store.load_interval st 0)

let test_bad_kind () =
  let st = make_store () in
  (* a well-formed record of the wrong kind: the base image where an
     interval is expected *)
  let base_raw = read_file (Store.base_path (Store.dir st)) in
  write_file (Store.interval_path st 0) base_raw;
  check_error "kind confusion" "bad_kind" (Store.load_interval st 0)

let test_missing_manifest () =
  match Store.open_store ~dir:(fresh_dir ()) with
  | Ok _ -> Alcotest.fail "opened a store with no manifest"
  | Error (Store.E_io _) -> ()
  | Error e ->
    Alcotest.fail ("expected E_io, got " ^ Store.error_to_string e)

(* the cached result of interval 0 under [config_digest], if any *)
let cached st ~config_digest =
  List.assoc_opt 0 (Store.cached_results st ~config_digest)

(* the result cache: hits round-trip, config digests partition the
   cache, and a corrupt cache entry means "replay again", never a
   failure or a wrong answer *)
let test_result_cache () =
  let st = make_store () in
  let digest = (Store.manifest st).Store.m_config_digest in
  let iv =
    let cr = Lazy.force capture in
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
      ~index:0 ~base:cr.Sample.cr_base cr.Sample.cr_deltas.(0)
  in
  (match cached st ~config_digest:digest with
  | None -> ()
  | Some _ -> Alcotest.fail "cache hit before any put");
  (match Store.put_result st ~config_digest:digest ~index:0 iv with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Store.error_to_string e));
  (match cached st ~config_digest:digest with
  | Some cached ->
    Alcotest.(check bool) "cached result identical" true (cached = iv)
  | None -> Alcotest.fail "cache miss after put");
  (* a different config digest is a different cache universe *)
  let other = Store.config_digest { Config.tiny with Config.rob_size = 9 } in
  (match cached st ~config_digest:other with
  | None -> ()
  | Some _ -> Alcotest.fail "cache leaked across config digests");
  Alcotest.(check int) "cached_results finds the one entry" 1
    (List.length (Store.cached_results st ~config_digest:digest));
  (* corrupt the cache entry: fail-open to a replay, not an error *)
  let path = Store.result_path st ~config_digest:digest 0 in
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw - 3));
  (match cached st ~config_digest:digest with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt cache entry served");
  check_error "put_result range check" "bad_index"
    (Store.put_result st ~config_digest:digest ~index:999 iv)

(* sweep legs share one store but never share results: entries live
   under per-config-digest file names, so two legs populating the cache
   side by side stay disjoint and a hit for leg A is never served to
   leg B — even at the same interval index *)
let test_leg_cache_disjoint () =
  let st = make_store () in
  let cr = Lazy.force capture in
  let config_a = { Config.tiny with Config.rob_size = 12 } in
  let config_b = { Config.tiny with Config.rob_size = 14 } in
  let digest_a = Store.config_digest config_a in
  let digest_b = Store.config_digest config_b in
  Alcotest.(check bool) "legs digest differently" true (digest_a <> digest_b);
  let iv_a =
    Sample.replay_delta ~core_name:"ooo" ~config:config_a ~schedule ~index:0
      ~base:cr.Sample.cr_base cr.Sample.cr_deltas.(0)
  in
  Alcotest.(check bool) "leg A's interval measured" true (iv_a <> None);
  (* leg B caches the distinguishable "window not measured" marker *)
  let iv_b = None in
  (match Store.put_result st ~config_digest:digest_a ~index:0 iv_a with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Store.error_to_string e));
  (* leg B misses where leg A hits *)
  (match cached st ~config_digest:digest_b with
  | None -> ()
  | Some _ -> Alcotest.fail "leg A's result served to leg B");
  (match Store.put_result st ~config_digest:digest_b ~index:0 iv_b with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Store.error_to_string e));
  (* each leg reads back its own result, not the other's *)
  let hit name digest =
    match cached st ~config_digest:digest with
    | Some iv -> iv
    | None -> Alcotest.fail (name ^ ": miss after put")
  in
  Alcotest.(check bool) "leg A reads its own timing" true
    (hit "leg A" digest_a = iv_a);
  Alcotest.(check bool) "leg B reads its own timing" true
    (hit "leg B" digest_b = iv_b);
  Alcotest.(check int) "one entry per leg" 1
    (List.length (Store.cached_results st ~config_digest:digest_a));
  Alcotest.(check bool) "both legs listed" true
    (List.mem digest_a (Store.cached_digests st)
    && List.mem digest_b (Store.cached_digests st))

(* two domains hammering the same result-cache slot: every write is
   tmp+rename with a per-(pid, counter) tmp name, so concurrent puts
   can interleave freely and the survivor must still read back clean *)
let test_result_cache_race () =
  let st = make_store () in
  let digest = (Store.manifest st).Store.m_config_digest in
  let cr = Lazy.force capture in
  let iv =
    Sample.replay_delta ~core_name:"ooo" ~config:Config.tiny ~schedule
      ~index:0 ~base:cr.Sample.cr_base cr.Sample.cr_deltas.(0)
  in
  let racer () =
    for _ = 1 to 50 do
      match Store.put_result st ~config_digest:digest ~index:0 iv with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Store.error_to_string e)
    done
  in
  let d1 = Stdlib.Domain.spawn racer in
  let d2 = Stdlib.Domain.spawn racer in
  Stdlib.Domain.join d1;
  Stdlib.Domain.join d2;
  match cached st ~config_digest:digest with
  | Some cached ->
    Alcotest.(check bool) "raced cache entry reads back clean" true
      (cached = iv)
  | None -> Alcotest.fail "raced cache entry lost"

(* ---- the capture journal: resumable capture ---- *)

exception Interrupted

let dir_files dir = Sys.readdir dir |> Array.to_list |> List.sort compare

let check_same_store name dir_a dir_b =
  Alcotest.(check (list string))
    (name ^ ": same file set")
    (dir_files dir_b) (dir_files dir_a);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s byte-identical" name f)
        true
        (read_file (Filename.concat dir_a f)
        = read_file (Filename.concat dir_b f)))
    (dir_files dir_a)

(* a journaled capture pass over the shared workload; [interrupt_at]
   simulates a crash right after that window's journal record lands *)
let journal_capture ~dir ?(schedule = schedule) ?(placement = Sample.Fixed)
    ?(domain = fun () -> fst (Test_checkpoint.bare_loop ~iters:20_000 ()))
    ?resume ?interrupt_at () =
  let j =
    match
      Store.begin_capture ~dir ~workload:"test-workload" ~core:"ooo"
        ~schedule ~placement:(Sample.placement_to_string placement)
        ~config:Config.tiny ?resume ()
    with
    | Ok j -> j
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let on_base b =
    match Store.journal_base j b with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let on_window (w : Sample.window) =
    (match
       Store.journal_interval j ~index:w.Sample.w_index
         ~delta_bytes:w.Sample.w_delta_bytes
         ~full_bytes:w.Sample.w_full_bytes w.Sample.w_delta
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Store.error_to_string e));
    match interrupt_at with
    | Some i when w.Sample.w_index = i -> raise Interrupted
    | _ -> ()
  in
  let rs =
    Option.map
      (fun pt ->
        {
          Sample.rs_base = pt.Store.pt_base;
          rs_last = pt.Store.pt_last;
          rs_count = pt.Store.pt_count;
          rs_delta_bytes = pt.Store.pt_delta_bytes;
          rs_full_bytes = pt.Store.pt_full_bytes;
        })
      resume
  in
  let cr =
    Sample.run_capture ~placement ~on_base ~on_window ?resume:rs ~schedule
      (domain ())
  in
  (j, cr)

let finish j (cr : Sample.capture_run) =
  match
    Store.finish_capture j ~total_insns:cr.Sample.cr_insns
      ~total_cycles:cr.Sample.cr_cycles
  with
  | Ok st -> st
  | Error e -> Alcotest.fail (Store.error_to_string e)

(* the journaled path and the one-shot Store.create path must lay down
   the very same bytes — journaling is free of observable side effects *)
let test_journal_matches_create () =
  let cr = Lazy.force capture in
  let dir_b = fresh_dir () in
  (match
     Store.create ~dir:dir_b ~workload:"test-workload" ~core:"ooo" ~schedule
       ~placement:"fixed" cr ~config:Config.tiny
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Store.error_to_string e));
  let dir_a = fresh_dir () in
  let j, cr2 = journal_capture ~dir:dir_a () in
  ignore (finish j cr2);
  Alcotest.(check int) "same totals" cr.Sample.cr_insns cr2.Sample.cr_insns;
  check_same_store "journal vs create" dir_a dir_b

(* crash after window 2's record landed, tear that record mid-write,
   resume: the journal recovers the longest valid prefix (0,1), the
   resumed pass recaptures 2 onward, and the sealed store is
   byte-identical to one captured without interruption *)
let test_capture_resume_after_torn_record () =
  let cr = Lazy.force capture in
  let dir_b = fresh_dir () in
  (match
     Store.create ~dir:dir_b ~workload:"test-workload" ~core:"ooo" ~schedule
       ~placement:"fixed" cr ~config:Config.tiny
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Store.error_to_string e));
  let dir_c = fresh_dir () in
  (try ignore (journal_capture ~dir:dir_c ~interrupt_at:2 ()) with
  | Interrupted -> ());
  Alcotest.(check bool) "no manifest mid-capture" false
    (Sys.file_exists (Filename.concat dir_c "MANIFEST"));
  (* tear the last record mid-write *)
  let torn = Filename.concat dir_c "interval-000002" in
  let raw = read_file torn in
  write_file torn (String.sub raw 0 (String.length raw / 2));
  let pt =
    match Store.scan_partial ~dir:dir_c with
    | Ok (Some pt) -> pt
    | Ok None -> Alcotest.fail "no resume point found"
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  Alcotest.(check int) "torn record excluded from the prefix" 2
    pt.Store.pt_count;
  Alcotest.(check string) "journal identifies its workload" "test-workload"
    pt.Store.pt_workload;
  Alcotest.(check bool) "journal identifies its schedule" true
    (pt.Store.pt_schedule = schedule);
  let j, cr2 = journal_capture ~dir:dir_c ~resume:pt () in
  ignore (finish j cr2);
  Alcotest.(check int) "resumed totals are whole-run" cr.Sample.cr_insns
    cr2.Sample.cr_insns;
  Alcotest.(check bool) "progress record retired" false
    (Sys.file_exists (Filename.concat dir_c "PROGRESS"));
  check_same_store "resumed vs uninterrupted" dir_c dir_b;
  (* a sealed store has nothing to resume *)
  match Store.scan_partial ~dir:dir_c with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "sealed store offered a resume point"
  | Error e -> Alcotest.fail (Store.error_to_string e)

let scan_resume_point dir =
  match Store.scan_partial ~dir with
  | Ok (Some pt) -> pt
  | Ok None -> Alcotest.fail "no resume point found"
  | Error e -> Alcotest.fail (Store.error_to_string e)

(* The CLI's capture at its own scale: [capture --machine tiny --iters
   60000 --sample-period 40000 --sample-warmup 3000 --sample-measure
   5000], i.e. the bare compute loop of bin/optlsim.ml on the OoO core.
   Killed after window K and resumed, each placement must seal a store
   whose every interval record and manifest equal an uninterrupted
   capture's byte for byte. The native clock's sub-cycle remainder is
   what a resumed pass used to lose. *)
let cli_schedule =
  { Sample.ff_insns = 40_000 - 3_000 - 5_000; warmup_insns = 3_000;
    measure_insns = 5_000 }

let cli_domain () =
  let module G = Ptl_workloads.Gasm in
  let module Machine = Ptl_arch.Machine in
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rcx 60_000;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.imuli g G.rbx 1103515245;
  G.addi g G.rbx 12345;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Ptl_isa.Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  Ptl_hyper.Domain.create ~core:"ooo" ~config:Config.tiny m.Machine.env
    m.Machine.ctx

let test_cli_capture_resume () =
  List.iter
    (fun (placement, kill_points) ->
      let name = Sample.placement_to_string placement in
      let capture ~dir =
        journal_capture ~dir ~schedule:cli_schedule ~placement
          ~domain:cli_domain
      in
      let dir_whole = fresh_dir () in
      let j, cr = capture ~dir:dir_whole () in
      ignore (finish j cr);
      List.iter
        (fun k ->
          let dir = fresh_dir () in
          (try ignore (capture ~dir ~interrupt_at:k ()) with Interrupted -> ());
          let j, cr2 = capture ~dir ~resume:(scan_resume_point dir) () in
          ignore (finish j cr2);
          check_same_store
            (Printf.sprintf "%s, killed after window %d" name k)
            dir dir_whole)
        kill_points)
    (* kill points where a resumed pass diverged before the fix *)
    [ (Sample.Fixed, [ 2; 5 ]); (Sample.Rand_offset 5, [ 2; 5 ]);
      (Sample.Stratified, [ 1; 3 ]) ]

let suite =
  [
    Alcotest.test_case "round trip through disk" `Quick test_round_trip;
    Alcotest.test_case "bad index" `Quick test_bad_index;
    Alcotest.test_case "truncation rejected" `Quick test_truncation;
    Alcotest.test_case "bit flip rejected" `Quick test_bit_flip;
    Alcotest.test_case "bad magic / version rejected" `Quick
      test_bad_magic_and_version;
    Alcotest.test_case "record kind confusion rejected" `Quick test_bad_kind;
    Alcotest.test_case "missing manifest rejected" `Quick
      test_missing_manifest;
    Alcotest.test_case "result cache" `Quick test_result_cache;
    Alcotest.test_case "leg caches stay disjoint" `Quick
      test_leg_cache_disjoint;
    Alcotest.test_case "result cache write race" `Quick
      test_result_cache_race;
    Alcotest.test_case "journaled capture = one-shot capture" `Quick
      test_journal_matches_create;
    Alcotest.test_case "interrupted capture resumes byte-identically"
      `Quick test_capture_resume_after_torn_record;
    Alcotest.test_case "CLI-scale capture resumes byte-identically" `Quick
      test_cli_capture_resume;
  ]
