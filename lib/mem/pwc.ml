(** Page-walk caches (PWCs): per-level translation caches inside the
    hardware walker, in the style of the split translation caches on
    modern x86 (and the Virtuoso/gem5 MMU caches). Each of the three
    upper levels of the 4-level tree gets a fully-associative, LRU cache
    mapping a virtual-address prefix to the physical frame of the
    next-level table. A hit at depth [d] lets the walker skip the loads
    of all levels above it and resume [d + 1] loads from the leaf (depth
    0 = the cache in front of the leaf PTE table: one load left).

    The PWC is microarchitectural state exactly like a TLB: it joins the
    uarch snapshot/diff/fit-restore family so sampled and fleet replay
    stay bit-identical, and geometry-changing sweep legs restore
    fit-tolerantly (cold PWC, re-warm). *)

(** Cached depths: 0 caches the leaf-PTE table (1 walk load left),
    1 the PDE table (2 left), 2 the PDPT (3 left). *)
let depths = 3

type lvl = {
  tags : int64 array;  (* va prefix, or -1L invalid *)
  mfns : int array;  (* physical frame of the next-level table *)
  lru : int array;
}

type t = {
  name : string;
  entries : int;  (* per depth *)
  levels : lvl array;  (* index = depth *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(name = "pwc") ~entries () =
  if entries <= 0 then invalid_arg "Pwc.create: entries must be positive";
  {
    name;
    entries;
    levels =
      Array.init depths (fun _ ->
          {
            tags = Array.make entries (-1L);
            mfns = Array.make entries 0;
            lru = Array.make entries 0;
          });
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* Prefix key for a depth: depth 0 keys on bits 21.., depth 1 on 30..,
   depth 2 on 39.. *)
let key_of vaddr depth =
  Int64.shift_right_logical vaddr (Pagetable.huge_shift + (Pagetable.index_bits * depth))

let lvl_find lvl tag =
  let n = Array.length lvl.tags in
  let rec go i = if i >= n then None else if lvl.tags.(i) = tag then Some i else go (i + 1) in
  go 0

(** Deepest hit for [vaddr]: [Some depth] (0 = one walk load left), or
    [None]. Updates LRU and the hit/miss counters, and emits
    [Pwc_hit]/[Pwc_miss] trace events when tracing is armed. *)
let lookup t vaddr =
  let rec probe depth =
    if depth >= depths then None
    else
      match lvl_find t.levels.(depth) (key_of vaddr depth) with
      | Some i ->
        t.tick <- t.tick + 1;
        t.levels.(depth).lru.(i) <- t.tick;
        Some depth
      | None -> probe (depth + 1)
  in
  let hit = probe 0 in
  (match hit with
  | Some depth ->
    t.hits <- t.hits + 1;
    if !Ptl_trace.Trace.on then
      Ptl_trace.Trace.emit ~info:vaddr ~slot:depth ~tag:t.name
        Ptl_trace.Trace.Pwc_hit
  | None ->
    t.misses <- t.misses + 1;
    if !Ptl_trace.Trace.on then
      Ptl_trace.Trace.emit ~info:vaddr ~tag:t.name Ptl_trace.Trace.Pwc_miss);
  hit

(** [lookup] minus counters and trace events (functional warming). *)
let lookup_quiet t vaddr =
  let rec probe depth =
    if depth >= depths then None
    else
      match lvl_find t.levels.(depth) (key_of vaddr depth) with
      | Some i ->
        t.tick <- t.tick + 1;
        t.levels.(depth).lru.(i) <- t.tick;
        Some depth
      | None -> probe (depth + 1)
  in
  probe 0

let lvl_insert t lvl tag mfn =
  let n = Array.length lvl.tags in
  let victim = ref 0 in
  let best = ref max_int in
  (try
     for i = 0 to n - 1 do
       if lvl.tags.(i) = tag || lvl.tags.(i) = -1L then begin
         victim := i;
         raise Exit
       end;
       if lvl.lru.(i) < !best then begin
         best := lvl.lru.(i);
         victim := i
       end
     done
   with Exit -> ());
  t.tick <- t.tick + 1;
  lvl.tags.(!victim) <- tag;
  lvl.mfns.(!victim) <- mfn;
  lvl.lru.(!victim) <- t.tick

(** Remember the tables a successful walk traversed. [pte_addrs] is the
    walk's load list, root first (4 loads for a 4K mapping, 3 for a 2M
    leaf): the table holding load [i > 0] is cacheable at depth
    [len - 1 - i]. The root table (CR3) is not cached. *)
let insert t vaddr ~pte_addrs =
  let addrs = Array.of_list pte_addrs in
  let len = Array.length addrs in
  for i = 1 to len - 1 do
    let depth = len - 1 - i in
    if depth < depths then
      lvl_insert t t.levels.(depth) (key_of vaddr depth)
        (addrs.(i) lsr Phys_mem.page_shift)
  done

(** Walk loads left after consulting the PWC for a walk that would
    otherwise issue [walk_len] loads ([walk_len] = 4, or 3 for a huge
    mapping; a PDE-cache short-circuit may already have cut it to 1). *)
let loads_left t vaddr ~walk_len =
  match lookup t vaddr with
  | None -> walk_len
  | Some depth -> max 1 (walk_len - (depths - depth))

let flush t =
  Array.iter
    (fun lvl ->
      Array.fill lvl.tags 0 (Array.length lvl.tags) (-1L);
      Array.fill lvl.mfns 0 (Array.length lvl.mfns) 0;
      Array.fill lvl.lru 0 (Array.length lvl.lru) 0)
    t.levels

(* ---------- checkpointing (sampled/fleet replay) ---------- *)

type snapshot = {
  sn_entries : int;
  sn_tags : int64 array array;
  sn_mfns : int array array;
  sn_lru : int array array;
  sn_tick : int;
  sn_hits : int;
  sn_misses : int;
}

let snapshot t =
  {
    sn_entries = t.entries;
    sn_tags = Array.map (fun l -> Array.copy l.tags) t.levels;
    sn_mfns = Array.map (fun l -> Array.copy l.mfns) t.levels;
    sn_lru = Array.map (fun l -> Array.copy l.lru) t.levels;
    sn_tick = t.tick;
    sn_hits = t.hits;
    sn_misses = t.misses;
  }

(** Whether [snapshot] came from a PWC of this geometry. *)
let fits t s = s.sn_entries = t.entries && Array.length s.sn_tags = depths

let restore t ~snapshot:s =
  if not (fits t s) then invalid_arg "Pwc.restore: geometry mismatch";
  Array.iteri
    (fun d lvl ->
      Array.blit s.sn_tags.(d) 0 lvl.tags 0 t.entries;
      Array.blit s.sn_mfns.(d) 0 lvl.mfns 0 t.entries;
      Array.blit s.sn_lru.(d) 0 lvl.lru 0 t.entries)
    t.levels;
  t.tick <- s.sn_tick;
  t.hits <- s.sn_hits;
  t.misses <- s.sn_misses

(** Every mismatch between the live state and a snapshot; empty = exact. *)
let diff t s =
  let out = ref [] in
  let note fmt = Printf.ksprintf (fun str -> out := str :: !out) fmt in
  if not (fits t s) then note "%s: snapshot geometry mismatch" t.name
  else begin
    Array.iteri
      (fun d lvl ->
        for i = 0 to t.entries - 1 do
          if lvl.tags.(i) <> s.sn_tags.(d).(i) then
            note "%s depth %d slot %d: tag %#Lx vs %#Lx" t.name d i lvl.tags.(i)
              s.sn_tags.(d).(i)
          else begin
            if lvl.mfns.(i) <> s.sn_mfns.(d).(i) then
              note "%s depth %d slot %d: mfn %#x vs %#x" t.name d i lvl.mfns.(i)
                s.sn_mfns.(d).(i);
            if lvl.lru.(i) <> s.sn_lru.(d).(i) then
              note "%s depth %d slot %d: lru %d vs %d" t.name d i lvl.lru.(i)
                s.sn_lru.(d).(i)
          end
        done)
      t.levels;
    if t.tick <> s.sn_tick then note "%s: tick %d vs %d" t.name t.tick s.sn_tick;
    if t.hits <> s.sn_hits || t.misses <> s.sn_misses then
      note "%s: hit/miss counters %d/%d vs %d/%d" t.name t.hits t.misses
        s.sn_hits s.sn_misses
  end;
  List.rev !out

(* ---------- guard inspection hooks ---------- *)

(** All valid entries as (depth, prefix, table mfn) triples — the guard's
    PWC↔pagetable agreement check walks these. *)
let entries t =
  let out = ref [] in
  Array.iteri
    (fun d lvl ->
      Array.iteri
        (fun i tag -> if tag <> -1L then out := (d, tag, lvl.mfns.(i)) :: !out)
        lvl.tags)
    t.levels;
  !out
