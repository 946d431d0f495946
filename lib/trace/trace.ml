(** The cycle-accurate pipeline event trace — the paper's §2.3 event-log
    ring buffer reproduced as a standalone subsystem.

    Every pipeline structure (fetch, rename, issue queues, LSQ, commit,
    caches, TLBs, the branch predictor, the basic block cache) records
    typed events here so a misspeculation or replay storm can be
    reconstructed cycle by cycle, long after the aggregate counters have
    smeared it away. Capture goes into a bounded ring buffer that
    overwrites its oldest entries, PTLsim-style, so tracing an arbitrarily
    long run keeps the most recent window.

    Design constraints (and why this module is a process-global):

    - The disabled path must cost exactly one branch at each emit site:
      every call is guarded by [if !Trace.on then ...], so when tracing is
      off no event record, no optional argument and no closure is ever
      allocated. A global [bool ref] is the cheapest gate OCaml offers
      without flambda cross-module inlining guarantees.
    - Emitters live at every layer of the stack, including leaves like
      {!Ptl_mem.Cache} that know neither the simulated cycle nor which
      core owns them. The trace therefore keeps its own current-cycle
      register, stored once per simulated cycle by whichever core model is
      stepping.

    Filters (cycle window, RIP, event class) and a PTLsim-style trigger
    ("start logging at cycle N" / "on the first mispredict") are applied
    at emit time, so a filtered run can cover far more simulated time in
    the same buffer. Three sinks — human-readable text, Chrome
    trace-event JSON (loadable in Perfetto / chrome://tracing) and CSV —
    plus a per-x86-instruction timeline renderer turn the captured window
    into something a human can read. *)

open Ptl_util

(* ---------------------------------------------------------------- *)
(* Event model                                                       *)
(* ---------------------------------------------------------------- *)

type kind =
  (* pipeline stages / control *)
  | Fetch
  | Rename
  | Dispatch
  | Issue
  | Forward
  | Writeback
  | Replay
  | Annul
  | Redirect
  | Flush
  | Mispredict
  (* retirement *)
  | Commit
  | Commit_uop
  (* memory hierarchy *)
  | Cache_hit
  | Cache_miss
  | Prefetch
  | Tlb_hit
  | Tlb_miss
  (* basic block cache *)
  | Bb_hit
  | Bb_miss
  (* branch predictor internals *)
  | Bpred_predict
  | Bpred_update
  (* virtual memory: demand paging, page-walk caches, shootdowns *)
  | Page_fault
  | Tlb_shootdown
  | Pwc_hit
  | Pwc_miss

let kind_name = function
  | Fetch -> "fetch"
  | Rename -> "rename"
  | Dispatch -> "dispatch"
  | Issue -> "issue"
  | Forward -> "forward"
  | Writeback -> "writeback"
  | Replay -> "replay"
  | Annul -> "annul"
  | Redirect -> "redirect"
  | Flush -> "flush"
  | Mispredict -> "mispredict"
  | Commit -> "commit"
  | Commit_uop -> "commit-uop"
  | Cache_hit -> "cache-hit"
  | Cache_miss -> "cache-miss"
  | Prefetch -> "prefetch"
  | Tlb_hit -> "tlb-hit"
  | Tlb_miss -> "tlb-miss"
  | Bb_hit -> "bb-hit"
  | Bb_miss -> "bb-miss"
  | Bpred_predict -> "bpred-predict"
  | Bpred_update -> "bpred-update"
  | Page_fault -> "page-fault"
  | Tlb_shootdown -> "tlb-shootdown"
  | Pwc_hit -> "pwc-hit"
  | Pwc_miss -> "pwc-miss"

(** Coarse event classes, the unit of [-trace-filter] selection. *)
type cls = Pipe | Retire | Mem | Tlb | Bb | Bpred | Vm

let class_of = function
  | Fetch | Rename | Dispatch | Issue | Forward | Writeback | Replay | Annul
  | Redirect | Flush | Mispredict -> Pipe
  | Commit | Commit_uop -> Retire
  | Cache_hit | Cache_miss | Prefetch -> Mem
  | Tlb_hit | Tlb_miss -> Tlb
  | Bb_hit | Bb_miss -> Bb
  | Bpred_predict | Bpred_update -> Bpred
  | Page_fault | Tlb_shootdown | Pwc_hit | Pwc_miss -> Vm

let class_name = function
  | Pipe -> "pipe"
  | Retire -> "commit"
  | Mem -> "cache"
  | Tlb -> "tlb"
  | Bb -> "bb"
  | Bpred -> "bpred"
  | Vm -> "vm"

let all_classes = [ Pipe; Retire; Mem; Tlb; Bb; Bpred; Vm ]

let class_of_name = function
  | "pipe" -> Some Pipe
  | "commit" | "retire" -> Some Retire
  | "cache" | "mem" -> Some Mem
  | "tlb" -> Some Tlb
  | "bb" | "bbcache" -> Some Bb
  | "bpred" -> Some Bpred
  | "vm" | "pagefault" -> Some Vm
  | _ -> None

(** Parse a comma-separated class list ("pipe,commit,tlb"); unknown names
    raise [Invalid_argument]. An empty string means all classes. *)
let parse_classes s =
  if String.trim s = "" then all_classes
  else
    String.split_on_char ',' s
    |> List.map (fun name ->
           match class_of_name (String.trim name) with
           | Some c -> c
           | None -> invalid_arg ("Trace.parse_classes: unknown class " ^ name))

let class_bit = function
  | Pipe -> 1
  | Retire -> 2
  | Mem -> 4
  | Tlb -> 8
  | Bb -> 16
  | Bpred -> 32
  | Vm -> 64

type event = {
  ev_cycle : int;
  ev_kind : kind;
  ev_core : int;
  ev_thread : int;
  ev_uuid : int;  (* fetch-order uop id, -1 when not uop-scoped *)
  ev_rip : int64;
  ev_slot : int;  (* ROB index / cluster / cache level; kind-specific *)
  ev_info : int64;  (* kind-specific payload: address, target, latency *)
  ev_tag : string;  (* short detail: structure name, replay reason, ... *)
}

(** When capture actually begins. *)
type trigger =
  | Immediate
  | At_cycle of int  (* PTLsim -startlog: begin at a given cycle *)
  | On_mispredict  (* begin at the first mispredicted branch *)
  | On_sample  (* begin at the first measured sampling interval *)

(* ---------------------------------------------------------------- *)
(* Global state                                                      *)
(* ---------------------------------------------------------------- *)

type state = {
  mutable ring : event Ring.t;
  mutable stop_cycle : int;
  mutable rip_filter : int64 option;
  mutable class_mask : int;
  mutable trigger : trigger;
  mutable triggered : bool;
  mutable cycle : int;
  mutable captured : int;  (* events accepted into the ring, ever *)
  mutable overwritten : int;  (* accepted events later lost to wraparound *)
  (* incremental sink: called on every accepted event, in addition to the
     ring push (None = dump-at-exit only) *)
  mutable stream : (event -> unit) option;
  mutable stream_close : (unit -> unit) option;
}

let default_capacity = 1 lsl 20

let st =
  {
    ring = Ring.create 1;
    stop_cycle = max_int;
    rip_filter = None;
    class_mask = 127;
    trigger = Immediate;
    triggered = true;
    cycle = 0;
    captured = 0;
    overwritten = 0;
    stream = None;
    stream_close = None;
  }

(** The one-branch gate every emit site checks. True iff tracing is
    configured (even if the trigger has not fired yet — the trigger is
    observed by [emit] itself). *)
let on = ref false

(** Arm the trace. [start_cycle] is sugar for [~trigger:(At_cycle n)];
    an explicit [trigger] wins. *)
let configure ?(capacity = default_capacity) ?start_cycle
    ?(stop_cycle = max_int) ?rip ?(classes = all_classes) ?trigger () =
  let trigger =
    match (trigger, start_cycle) with
    | Some t, _ -> t
    | None, Some n -> At_cycle n
    | None, None -> Immediate
  in
  st.ring <- Ring.create (max 1 capacity);
  st.stop_cycle <- stop_cycle;
  st.rip_filter <- rip;
  st.class_mask <- List.fold_left (fun m c -> m lor class_bit c) 0 classes;
  st.trigger <- trigger;
  st.triggered <- (match trigger with Immediate -> true | _ -> false);
  st.captured <- 0;
  st.overwritten <- 0;
  on := true

(** Open the [On_sample] trigger: the sampling supervisor calls this at
    the start of each measured interval; capture begins at the first one
    and stays open (the usual trigger latching). A no-op for any other
    trigger. *)
let sample_boundary () =
  match st.trigger with On_sample -> st.triggered <- true | _ -> ()

(* finalize and detach any incremental sink *)
let close_stream () =
  (match st.stream_close with Some f -> f () | None -> ());
  st.stream <- None;
  st.stream_close <- None

let disable () =
  close_stream ();
  on := false

(** Drop every captured event but keep the configuration armed. *)
let clear () =
  Ring.clear st.ring;
  st.captured <- 0;
  st.overwritten <- 0;
  st.triggered <- (match st.trigger with Immediate -> true | _ -> false)

(** Cores store the simulated cycle here once per step so leaf emitters
    (caches, TLBs, the predictor) need not thread it through. *)
let set_cycle c = st.cycle <- c

let captured () = st.captured
let overwritten () = st.overwritten
let length () = Ring.length st.ring

(** Record one event. Callers MUST guard with [if !Trace.on] — that guard
    is the entire disabled-path cost; everything else (trigger, filters,
    the ring push) happens only when tracing is armed. *)
let emit ?(core = 0) ?(thread = 0) ?(uuid = -1) ?(rip = 0L) ?(slot = -1)
    ?(info = 0L) ?(tag = "") kind =
  if !on then begin
    (* trigger: checked before any filter so a class-filtered mispredict
       still opens the capture window *)
    if not st.triggered then begin
      match st.trigger with
      | At_cycle n -> if st.cycle >= n then st.triggered <- true
      | On_mispredict -> if kind = Mispredict then st.triggered <- true
      | On_sample -> ()  (* opened only by [sample_boundary] *)
      | Immediate -> st.triggered <- true
    end;
    if
      st.triggered
      && st.cycle <= st.stop_cycle
      && st.class_mask land class_bit (class_of kind) <> 0
      && (match st.rip_filter with None -> true | Some r -> rip = r)
    then begin
      let ev =
        {
          ev_cycle = st.cycle;
          ev_kind = kind;
          ev_core = core;
          ev_thread = thread;
          ev_uuid = uuid;
          ev_rip = rip;
          ev_slot = slot;
          ev_info = info;
          ev_tag = tag;
        }
      in
      if Ring.push_overwrite st.ring ev then
        st.overwritten <- st.overwritten + 1;
      st.captured <- st.captured + 1;
      match st.stream with Some f -> f ev | None -> ()
    end
  end

let count pred = Ring.fold st.ring 0 (fun acc ev -> if pred ev then acc + 1 else acc)

(** Number of committed x86 instructions in the window, optionally
    restricted to one core model's [tag] (e.g. "ooo"). *)
let commits ?tag () =
  count (fun ev ->
      ev.ev_kind = Commit
      && match tag with None -> true | Some t -> ev.ev_tag = t)

(* ---------------------------------------------------------------- *)
(* Sinks                                                             *)
(* ---------------------------------------------------------------- *)

let pp_event buf ev =
  Buffer.add_string buf
    (Printf.sprintf "%10d  %-13s c%d t%d" ev.ev_cycle (kind_name ev.ev_kind)
       ev.ev_core ev.ev_thread);
  if ev.ev_uuid >= 0 then Buffer.add_string buf (Printf.sprintf " uuid=%d" ev.ev_uuid);
  if ev.ev_rip <> 0L then Buffer.add_string buf (Printf.sprintf " rip=%#Lx" ev.ev_rip);
  if ev.ev_slot >= 0 then Buffer.add_string buf (Printf.sprintf " slot=%d" ev.ev_slot);
  if ev.ev_info <> 0L then Buffer.add_string buf (Printf.sprintf " info=%#Lx" ev.ev_info);
  if ev.ev_tag <> "" then Buffer.add_string buf (" [" ^ ev.ev_tag ^ "]");
  Buffer.add_char buf '\n'

(** One event as a single human-readable line (no trailing newline) — the
    line format of {!dump_text}, reused by co-simulation divergence
    reports. *)
let event_to_string ev =
  let buf = Buffer.create 64 in
  pp_event buf ev;
  Buffer.sub buf 0 (Buffer.length buf - 1)

(** The most recent [n] events of the captured window, oldest first. *)
let recent n =
  let evs = Ring.to_list st.ring in
  let drop = List.length evs - n in
  if drop <= 0 then evs
  else
    List.filteri (fun i _ -> i >= drop) evs

(** Human-readable event log, oldest first. *)
let dump_text oc =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# trace: %d events in window, %d captured, %d overwritten\n"
       (Ring.length st.ring) st.captured st.overwritten);
  Ring.iter st.ring (fun ev -> pp_event buf ev);
  Buffer.output_buffer oc buf

let csv_header = "cycle,kind,core,thread,uuid,rip,slot,info,tag\n"

let csv_row ev =
  Printf.sprintf "%d,%s,%d,%d,%d,0x%Lx,%d,0x%Lx,%s\n" ev.ev_cycle
    (kind_name ev.ev_kind) ev.ev_core ev.ev_thread ev.ev_uuid ev.ev_rip
    ev.ev_slot ev.ev_info ev.ev_tag

(** CSV sink: one row per event, stable column order. *)
let dump_csv oc =
  output_string oc csv_header;
  let buf = Buffer.create 4096 in
  Ring.iter st.ring (fun ev ->
      Buffer.add_string buf (csv_row ev);
      if Buffer.length buf > 1 lsl 16 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end);
  Buffer.output_buffer oc buf

(* Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
   wrapper), loadable in Perfetto or chrome://tracing. One process (pid)
   per core, one track (tid) per (SMT thread, pipeline stage) pair, one
   complete event ("ph":"X", 1-cycle duration) per trace event, with the
   payload in "args". Timestamps are simulated cycles interpreted as
   microseconds. Hardware thread N's tracks occupy a contiguous band of
   tids, so an SMT core's threads group into labeled bands ("t1:fetch",
   "t1:commit", ...); a single-threaded run keeps the plain stage ids. *)

let chrome_tid kind =
  match kind with
  | Fetch -> 0
  | Rename -> 1
  | Dispatch -> 2
  | Issue -> 3
  | Forward -> 4
  | Writeback -> 5
  | Replay -> 6
  | Annul -> 7
  | Redirect -> 8
  | Flush -> 9
  | Mispredict -> 10
  | Commit | Commit_uop -> 11
  | Cache_hit | Cache_miss | Prefetch -> 12
  | Tlb_hit | Tlb_miss -> 13
  | Bb_hit | Bb_miss -> 14
  | Bpred_predict | Bpred_update -> 15
  | Page_fault -> 16
  | Tlb_shootdown -> 17
  | Pwc_hit | Pwc_miss -> 18

let chrome_track_name tid =
  match tid with
  | 0 -> "fetch"
  | 1 -> "rename"
  | 2 -> "dispatch"
  | 3 -> "issue"
  | 4 -> "forward"
  | 5 -> "writeback"
  | 6 -> "replay"
  | 7 -> "annul"
  | 8 -> "redirect"
  | 9 -> "flush"
  | 10 -> "mispredict"
  | 11 -> "commit"
  | 12 -> "cache"
  | 13 -> "tlb"
  | 14 -> "bbcache"
  | 15 -> "bpred"
  | 16 -> "pagefault"
  | 17 -> "shootdown"
  | _ -> "pwc"

(* Perfetto track id: hardware thread N owns a band of [band] tids, so
   SMT threads render as contiguous labeled bands. Thread 0 keeps the
   plain stage ids. *)
let chrome_band = 32

let chrome_tid_of ev = (ev.ev_thread * chrome_band) + chrome_tid ev.ev_kind

let chrome_track_label tid =
  let stage = chrome_track_name (tid mod chrome_band) in
  if tid < chrome_band then stage
  else Printf.sprintf "t%d:%s" (tid / chrome_band) stage

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_process_meta core =
  Printf.sprintf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"core %d\"}}"
    core core

let chrome_thread_meta core tid =
  Printf.sprintf
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
    core tid
    (json_escape (chrome_track_label tid))

let chrome_sort_meta core tid =
  Printf.sprintf
    "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
    core tid tid

let chrome_event_json ev =
  let name =
    if ev.ev_tag = "" then kind_name ev.ev_kind
    else kind_name ev.ev_kind ^ ":" ^ ev.ev_tag
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":1,\"pid\":%d,\"tid\":%d,\"args\":{\"uuid\":%d,\"thread\":%d,\"rip\":\"0x%Lx\",\"slot\":%d,\"info\":\"0x%Lx\"}}"
    (json_escape name)
    (class_name (class_of ev.ev_kind))
    ev.ev_cycle ev.ev_core (chrome_tid_of ev) ev.ev_uuid ev.ev_thread
    ev.ev_rip ev.ev_slot ev.ev_info

(* Counter tracks ("ph":"C"): per-core page-fault and shootdown rates,
   bucketed over the captured window so Perfetto renders them as rate
   curves above the event bands. *)
let chrome_counter_events () =
  let lo = ref max_int and hi = ref min_int in
  Ring.iter st.ring (fun ev ->
      if ev.ev_cycle < !lo then lo := ev.ev_cycle;
      if ev.ev_cycle > !hi then hi := ev.ev_cycle);
  if !hi < !lo then []
  else begin
    let bucket = max 1 ((!hi - !lo + 1) / 100) in
    (* (core, name, bucket index) -> count *)
    let counts = Hashtbl.create 64 in
    let bump core name ev_cycle =
      let key = (core, name, (ev_cycle - !lo) / bucket) in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    in
    Ring.iter st.ring (fun ev ->
        match ev.ev_kind with
        | Page_fault -> bump ev.ev_core "vm:faults" ev.ev_cycle
        | Tlb_shootdown -> bump ev.ev_core "vm:shootdowns" ev.ev_cycle
        | _ -> ());
    Hashtbl.fold
      (fun (core, name, b) n acc ->
        ((!lo + (b * bucket)),
         Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"args\":{\"rate\":%d}}"
           name
           (!lo + (b * bucket))
           core n)
        :: acc)
      counts []
    |> List.sort compare |> List.map snd
  end

let dump_chrome oc =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n "
  in
  (* metadata: name the per-core processes and the per-(SMT thread, stage)
     tracks that actually appear in the window *)
  let tracks = Hashtbl.create 64 in
  Ring.iter st.ring (fun ev ->
      Hashtbl.replace tracks (ev.ev_core, chrome_tid_of ev) ());
  let cores = Hashtbl.create 8 in
  Hashtbl.iter (fun (core, _) () -> Hashtbl.replace cores core ()) tracks;
  Hashtbl.iter
    (fun core () ->
      sep ();
      Buffer.add_string buf (chrome_process_meta core))
    cores;
  Hashtbl.iter
    (fun (core, tid) () ->
      sep ();
      Buffer.add_string buf (chrome_thread_meta core tid);
      sep ();
      Buffer.add_string buf (chrome_sort_meta core tid))
    tracks;
  List.iter
    (fun json ->
      sep ();
      Buffer.add_string buf json)
    (chrome_counter_events ());
  Ring.iter st.ring (fun ev ->
      sep ();
      Buffer.add_string buf (chrome_event_json ev);
      if Buffer.length buf > 1 lsl 16 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc buf

(* ---------------------------------------------------------------- *)
(* Incremental streaming sinks                                       *)
(* ---------------------------------------------------------------- *)

(** Output format of a streaming sink (satellite of the ring sinks above:
    same text / CSV / Chrome encodings, written event-by-event). *)
type stream_format = Stream_text | Stream_csv | Stream_chrome

let stream_format_of_name = function
  | "text" | "txt" -> Some Stream_text
  | "csv" -> Some Stream_csv
  | "chrome" | "json" -> Some Stream_chrome
  | _ -> None

(** Attach an incremental sink: every event accepted from now on (trigger
    and filters already applied) is also written to [oc] immediately, so
    a run that dies mid-flight still leaves a usable trace and a trace
    larger than the ring survives wraparound. Replaces any sink already
    installed (finalizing it first). The Chrome writer emits process /
    track metadata lazily, the first time each (core, track) appears.
    [stream_stop] (or [disable]) finalizes the sink — for Chrome that
    writes the closing bracket, so the file is valid JSON only after it
    runs. The caller keeps ownership of [oc]; [on_stop] runs exactly
    once, after the format finalizer, whichever path tears the sink
    down — pass a closure that closes [oc] so abnormal exits
    ({!Ptl_util.Failure.Sim_failure} unwinds) cannot leave a truncated
    file behind. *)
let stream_to ?on_stop fmt oc =
  close_stream ();
  (match fmt with
  | Stream_text ->
    st.stream <-
      Some
        (fun ev ->
          output_string oc (event_to_string ev);
          output_char oc '\n');
    st.stream_close <- Some (fun () -> flush oc)
  | Stream_csv ->
    output_string oc csv_header;
    st.stream <- Some (fun ev -> output_string oc (csv_row ev));
    st.stream_close <- Some (fun () -> flush oc)
  | Stream_chrome ->
    output_string oc "{\"traceEvents\":[";
    let first = ref true in
    let named = Hashtbl.create 64 in
    let put s =
      if !first then first := false else output_char oc ',';
      output_string oc "\n ";
      output_string oc s
    in
    st.stream <-
      Some
        (fun ev ->
          let core = ev.ev_core and tid = chrome_tid_of ev in
          if not (Hashtbl.mem named (core, -1)) then begin
            Hashtbl.add named (core, -1) ();
            put (chrome_process_meta core)
          end;
          if not (Hashtbl.mem named (core, tid)) then begin
            Hashtbl.add named (core, tid) ();
            put (chrome_thread_meta core tid);
            put (chrome_sort_meta core tid)
          end;
          put (chrome_event_json ev));
    st.stream_close <-
      Some
        (fun () ->
          output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
          flush oc));
  match on_stop with
  | None -> ()
  | Some f ->
    let fin = st.stream_close in
    st.stream_close <-
      Some
        (fun () ->
          (match fin with Some g -> g () | None -> ());
          f ())

(** Finalize and detach the streaming sink, if any. Idempotent. *)
let stream_stop () = close_stream ()

(* ---------------------------------------------------------------- *)
(* Per-instruction timelines                                         *)
(* ---------------------------------------------------------------- *)

(* A uop's journey, reassembled from its uuid-scoped events. *)
type lane = {
  l_uuid : int;
  mutable l_rip : int64;
  mutable l_thread : int;
  mutable l_fetch : int;
  mutable l_rename : int;
  mutable l_dispatch : int;
  mutable l_issue : int;  (* last issue attempt *)
  mutable l_forward : int;
  mutable l_writeback : int;
  mutable l_commit : int;
  mutable l_annul : int;
  mutable l_replays : int;
  mutable l_mispredict : bool;
  mutable l_tags : string list;
}

let timelines ?rip () =
  let lanes : (int, lane) Hashtbl.t = Hashtbl.create 256 in
  let lane ev =
    match Hashtbl.find_opt lanes ev.ev_uuid with
    | Some l -> l
    | None ->
      let l =
        {
          l_uuid = ev.ev_uuid;
          l_rip = ev.ev_rip;
          l_thread = ev.ev_thread;
          l_fetch = -1;
          l_rename = -1;
          l_dispatch = -1;
          l_issue = -1;
          l_forward = -1;
          l_writeback = -1;
          l_commit = -1;
          l_annul = -1;
          l_replays = 0;
          l_mispredict = false;
          l_tags = [];
        }
      in
      Hashtbl.add lanes ev.ev_uuid l;
      l
  in
  Ring.iter st.ring (fun ev ->
      if ev.ev_uuid >= 0 then begin
        let keep = match rip with None -> true | Some r -> ev.ev_rip = r in
        if keep then begin
          let l = lane ev in
          if l.l_rip = 0L then l.l_rip <- ev.ev_rip;
          (match ev.ev_kind with
          | Fetch -> l.l_fetch <- ev.ev_cycle
          | Rename -> l.l_rename <- ev.ev_cycle
          | Dispatch -> l.l_dispatch <- ev.ev_cycle
          | Issue -> l.l_issue <- ev.ev_cycle
          | Forward -> l.l_forward <- ev.ev_cycle
          | Writeback -> l.l_writeback <- ev.ev_cycle
          | Commit | Commit_uop ->
            if l.l_commit < 0 then l.l_commit <- ev.ev_cycle
          | Annul -> l.l_annul <- ev.ev_cycle
          | Replay ->
            l.l_replays <- l.l_replays + 1;
            if ev.ev_tag <> "" && not (List.mem ev.ev_tag l.l_tags) then
              l.l_tags <- ev.ev_tag :: l.l_tags
          | Mispredict -> l.l_mispredict <- true
          | _ -> ())
        end
      end);
  Hashtbl.fold (fun _ l acc -> l :: acc) lanes []
  |> List.sort (fun a b -> compare a.l_uuid b.l_uuid)

(** Render per-uop timelines: one row per uop in fetch order, one column
    per pipeline stage holding the cycle the uop reached it. Rows of the
    same x86 instruction share a RIP; a mispredicted branch shows its
    [mispredict] note and the wrong-path uops after it show [annul@N]
    followed by fresh fetches at the redirect target. *)
let render_timeline ?rip ?(limit = 1000) oc =
  let lanes = timelines ?rip () in
  let total = List.length lanes in
  let cell c = if c < 0 then "     ." else Printf.sprintf "%6d" c in
  output_string oc
    "  uuid th       rip        fetch rename   disp  issue    fwd     wb commit  notes\n";
  let shown = ref 0 in
  List.iter
    (fun l ->
      if !shown < limit then begin
        incr shown;
        let notes = ref [] in
        if l.l_mispredict then notes := "mispredict" :: !notes;
        if l.l_annul >= 0 then
          notes := Printf.sprintf "annul@%d" l.l_annul :: !notes;
        if l.l_replays > 0 then
          notes :=
            Printf.sprintf "replay x%d%s" l.l_replays
              (match l.l_tags with
              | [] -> ""
              | tags -> " (" ^ String.concat "," tags ^ ")")
            :: !notes;
        output_string oc
          (Printf.sprintf "%6d %2d %#12Lx %s %s %s %s %s %s %s  %s\n" l.l_uuid
             l.l_thread l.l_rip (cell l.l_fetch) (cell l.l_rename)
             (cell l.l_dispatch) (cell l.l_issue) (cell l.l_forward)
             (cell l.l_writeback) (cell l.l_commit)
             (String.concat "; " (List.rev !notes)))
      end)
    lanes;
  if total > limit then
    output_string oc
      (Printf.sprintf "... %d more uops (raise the limit or filter by rip)\n"
         (total - limit))
