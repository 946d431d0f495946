(** Set-associative cache array with banking, write-back dirty state and
    pluggable replacement.

    This is the building block for the L1 I/D, L2 and L3 models in
    {!Hierarchy}. It models tag state only (data lives in guest physical
    memory); what matters for cycle accuracy is hits, misses, evictions,
    dirty write-backs and bank conflicts. The K8 experiment (paper §5) uses
    the banking model: the K8 L1 D-cache is pseudo dual-ported with 8 banks
    along 64-bit boundaries, and colliding accesses replay for one cycle. *)

open Ptl_util

type replacement = Lru | Random_repl | Fifo

type config = {
  name : string;
  size_bytes : int;
  line_size : int;
  ways : int;
  latency : int;  (* access latency in cycles on a hit *)
  banks : int;  (* 1 = no banking *)
  replacement : replacement;
}

let k8_l1d =
  {
    name = "L1D";
    size_bytes = 64 * 1024;
    line_size = 64;
    ways = 2;
    latency = 3;
    banks = 8;
    replacement = Lru;
  }

let k8_l1i = { k8_l1d with name = "L1I"; banks = 1 }

let k8_l2 =
  {
    name = "L2";
    size_bytes = 1024 * 1024;
    line_size = 64;
    ways = 16;
    latency = 10;
    banks = 1;
    replacement = Lru;
  }

type line = {
  mutable tag : int;  (* -1 = invalid *)
  mutable dirty : bool;
  mutable stamp : int;  (* LRU recency or FIFO insertion order *)
}

type t = {
  config : config;
  sets : int;
  line_shift : int;  (* log2 of the line size *)
  lines : line array array;
  rng : Rng.t;
  mutable tick : int;
  (* statistics *)
  hits : Ptl_stats.Statstree.counter;
  misses : Ptl_stats.Statstree.counter;
  writebacks : Ptl_stats.Statstree.counter;
}

let create ?(stats_prefix = "") stats config =
  if not (Bitops.is_pow2 config.line_size) then invalid_arg "Cache: line size";
  let nlines = config.size_bytes / config.line_size in
  if nlines mod config.ways <> 0 then invalid_arg "Cache: geometry";
  let sets = nlines / config.ways in
  if not (Bitops.is_pow2 sets) then invalid_arg "Cache: sets must be a power of two";
  let prefix =
    if stats_prefix = "" then "cache." ^ config.name else stats_prefix ^ "." ^ config.name
  in
  let counter suffix = Ptl_stats.Statstree.counter stats (prefix ^ "." ^ suffix) in
  {
    config;
    sets;
    line_shift = Bitops.log2 config.line_size;
    lines =
      Array.init sets (fun _ ->
          Array.init config.ways (fun _ -> { tag = -1; dirty = false; stamp = 0 }));
    rng = Rng.create (Hashtbl.hash config.name);
    tick = 0;
    hits = counter "hits";
    misses = counter "misses";
    writebacks = counter "writebacks";
  }

let line_addr t paddr = Bitops.align_down paddr t.config.line_size
let set_of t paddr = (paddr lsr t.line_shift) land (t.sets - 1)
let tag_of t paddr = paddr lsr t.line_shift

(** Bank touched by an access (banks divide the line along 8-byte words,
    K8-style). *)
let bank_of t paddr = (paddr lsr 3) land (t.config.banks - 1)

(** Non-destructive presence test. *)
let probe t paddr =
  let s = set_of t paddr and tag = tag_of t paddr in
  Array.exists (fun l -> l.tag = tag) t.lines.(s)

type access_result =
  | Hit
  (* Miss carrying the dirty victim line's physical address needing
     write-back, if any. The line is filled (allocated) by the access. *)
  | Miss of { writeback : int option }

let pick_victim t set =
  let ways = t.lines.(set) in
  (* Prefer an invalid way. *)
  let rec find_invalid w =
    if w >= Array.length ways then None
    else if ways.(w).tag = -1 then Some w
    else find_invalid (w + 1)
  in
  match find_invalid 0 with
  | Some w -> w
  | None ->
    (match t.config.replacement with
    | Random_repl -> Rng.int t.rng t.config.ways
    | Lru | Fifo ->
      let victim = ref 0 and best = ref max_int in
      Array.iteri
        (fun w l ->
          if l.stamp < !best then begin
            best := l.stamp;
            victim := w
          end)
        ways;
      !victim)

(** Access (and allocate on miss) the line containing [paddr].
    [write] marks the line dirty on hit or after fill. *)
let access t paddr ~write =
  t.tick <- t.tick + 1;
  let s = set_of t paddr and tag = tag_of t paddr in
  let ways = t.lines.(s) in
  let rec find w = if w >= Array.length ways then None else if ways.(w).tag = tag then Some w else find (w + 1) in
  match find 0 with
  | Some w ->
    Ptl_stats.Statstree.incr t.hits;
    if !Ptl_trace.Trace.on then
      Ptl_trace.Trace.emit ~info:(Int64.of_int paddr) ~tag:t.config.name
        Ptl_trace.Trace.Cache_hit;
    if t.config.replacement = Lru then ways.(w).stamp <- t.tick;
    if write then ways.(w).dirty <- true;
    Hit
  | None ->
    Ptl_stats.Statstree.incr t.misses;
    if !Ptl_trace.Trace.on then
      Ptl_trace.Trace.emit ~info:(Int64.of_int paddr) ~tag:t.config.name
        Ptl_trace.Trace.Cache_miss;
    let w = pick_victim t s in
    let victim = ways.(w) in
    let writeback =
      if victim.tag >= 0 && victim.dirty then begin
        Ptl_stats.Statstree.incr t.writebacks;
        Some (victim.tag lsl t.line_shift)
      end
      else None
    in
    victim.tag <- tag;
    victim.dirty <- write;
    victim.stamp <- t.tick;
    Miss { writeback }

(** Functional warming (sampled simulation fast-forward): update tag,
    LRU recency and dirty state exactly as [access] would — allocating on
    a miss — but without touching the hit/miss/writeback counters or
    emitting trace events, so measured-interval statistics stay clean.
    Dirty victims are silently dropped (data lives in guest physical
    memory; only the tag state matters for timing fidelity). *)
let warm t paddr ~write =
  t.tick <- t.tick + 1;
  let s = set_of t paddr and tag = tag_of t paddr in
  let ways = t.lines.(s) in
  let rec find w =
    if w >= Array.length ways then None
    else if ways.(w).tag = tag then Some w
    else find (w + 1)
  in
  match find 0 with
  | Some w ->
    if t.config.replacement = Lru then ways.(w).stamp <- t.tick;
    if write then ways.(w).dirty <- true
  | None ->
    let w = pick_victim t s in
    let victim = ways.(w) in
    victim.tag <- tag;
    victim.dirty <- write;
    victim.stamp <- t.tick

(** Insert a line without counting an access (prefetch fills). *)
let fill t paddr =
  let s = set_of t paddr and tag = tag_of t paddr in
  let ways = t.lines.(s) in
  if not (Array.exists (fun l -> l.tag = tag) ways) then begin
    t.tick <- t.tick + 1;
    let w = pick_victim t s in
    let victim = ways.(w) in
    victim.tag <- tag;
    victim.dirty <- false;
    victim.stamp <- t.tick
  end

(** Invalidate the line containing [paddr]; returns true if it was present
    and dirty (caller must write back). *)
let invalidate t paddr =
  let s = set_of t paddr and tag = tag_of t paddr in
  let dirty = ref false in
  Array.iter
    (fun l ->
      if l.tag = tag then begin
        if l.dirty then dirty := true;
        l.tag <- -1;
        l.dirty <- false
      end)
    t.lines.(s);
  !dirty

(** Tag/LRU structural consistency for the guard registry: no duplicate
    tags within a set, no garbage tags, and no recency stamp from the
    future. Returns a violation description, or None. *)
let check t =
  let violation = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  Array.iteri
    (fun s ways ->
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun l ->
          if l.tag < -1 then note "%s set %d: invalid tag %d" t.config.name s l.tag
          else if l.tag >= 0 then begin
            if Hashtbl.mem seen l.tag then
              note "%s set %d: duplicate tag %#x" t.config.name s l.tag;
            Hashtbl.replace seen l.tag ();
            if l.stamp > t.tick then
              note "%s set %d tag %#x: stamp %d from the future (tick %d)"
                t.config.name s l.tag l.stamp t.tick
          end)
        ways)
    t.lines;
  !violation

(** Planted corruption for guard self-tests: copy the tag of the first
    valid line into another way of the same set. *)
let debug_duplicate_tag t =
  if t.config.ways < 2 then false
  else begin
    let done_ = ref false in
    Array.iter
      (fun ways ->
        if not !done_ then
          Array.iteri
            (fun w l ->
              if (not !done_) && l.tag >= 0 && w + 1 < Array.length ways then begin
                ways.(w + 1).tag <- l.tag;
                ways.(w + 1).dirty <- false;
                ways.(w + 1).stamp <- l.stamp;
                done_ := true
              end)
            ways)
      t.lines;
    !done_
  end

(* ---------- checkpointing (sampled-simulation parallel workers) ---------- *)

(** Deep copy of the tag array, the replacement tick and the replacement
    RNG cursor — everything a restored cache needs to replay an access
    stream identically. Statistics counters are deliberately excluded:
    they belong to the owning {!Ptl_stats.Statstree}. *)
type snapshot = {
  sn_lines : (int * bool * int) array array;  (* (tag, dirty, stamp) *)
  sn_tick : int;
  sn_rng : Rng.snapshot;
}

let snapshot t =
  {
    sn_lines =
      Array.map (Array.map (fun l -> (l.tag, l.dirty, l.stamp))) t.lines;
    sn_tick = t.tick;
    sn_rng = Rng.snapshot t.rng;
  }

(** Whether [snapshot] came from a cache of this geometry (same set
    count and associativity) — the precondition of {!restore}. Sweep
    legs replaying a checkpoint under a different geometry check this
    and start the cache cold instead. *)
let fits t snapshot =
  Array.length snapshot.sn_lines = t.sets
  && Array.for_all
       (fun ways -> Array.length ways = t.config.ways)
       snapshot.sn_lines

let restore t ~snapshot =
  if Array.length snapshot.sn_lines <> t.sets then
    invalid_arg "Cache.restore: geometry mismatch";
  Array.iteri
    (fun s ways ->
      Array.iteri
        (fun w (tag, dirty, stamp) ->
          let l = t.lines.(s).(w) in
          l.tag <- tag;
          l.dirty <- dirty;
          l.stamp <- stamp)
        ways)
    snapshot.sn_lines;
  t.tick <- snapshot.sn_tick;
  Rng.restore t.rng ~snapshot:snapshot.sn_rng

(** Compare the live cache state against a snapshot; returns one line per
    mismatch (tag/dirty/LRU-stamp per way, plus the tick and RNG
    cursors). Empty = exact match. The checkpoint round-trip harness
    leans on this to prove save/restore is lossless. *)
let diff t snapshot =
  let out = ref [] in
  let note fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if Array.length snapshot.sn_lines <> t.sets then
    note "%s: snapshot geometry mismatch" t.config.name
  else begin
    Array.iteri
      (fun s ways ->
        Array.iteri
          (fun w (tag, dirty, stamp) ->
            let l = t.lines.(s).(w) in
            if l.tag <> tag then
              note "%s set %d way %d: tag %#x vs %#x" t.config.name s w l.tag
                tag
            else begin
              if l.dirty <> dirty then
                note "%s set %d way %d: dirty %b vs %b" t.config.name s w
                  l.dirty dirty;
              if l.stamp <> stamp then
                note "%s set %d way %d: lru stamp %d vs %d" t.config.name s w
                  l.stamp stamp
            end)
          ways)
      snapshot.sn_lines;
    if t.tick <> snapshot.sn_tick then
      note "%s: tick %d vs %d" t.config.name t.tick snapshot.sn_tick;
    if not (Rng.equal_snapshot t.rng snapshot.sn_rng) then
      note "%s: replacement rng state differs" t.config.name
  end;
  List.rev !out

(** Planted corruption for checkpoint round-trip self-tests: bump the LRU
    stamp of the first valid line (returns false when the cache is
    empty). *)
let debug_touch_lru t =
  let done_ = ref false in
  Array.iter
    (fun ways ->
      Array.iter
        (fun l ->
          if (not !done_) && l.tag >= 0 then begin
            t.tick <- t.tick + 1;
            l.stamp <- t.tick;
            done_ := true
          end)
        ways)
    t.lines;
  !done_

(** Configured hit latency (cycles). *)
let latency t = t.config.latency
