(** Translation lookaside buffers.

    Set-associative, LRU-replaced, with an optional second level and an
    optional page-directory-entry (PDE) cache — the K8 structures the paper
    identifies as the cause of its Table 1 DTLB discrepancy (PTLsim modeled
    only a 32-entry L1 TLB; the real K8 adds a 1024-entry 4-way L2 TLB and
    a 24-entry PDE cache that short-circuits page walks). Both
    configurations are constructible here so the experiment harness can
    reproduce that row of Table 1 and the `ablate-tlb` bench. *)

type entry = {
  vpn : int64;
  mfn : int;  (* 4K frame; for a huge entry the 2M region's base frame *)
  writable : bool;
  user : bool;
  nx : bool;
  huge : bool;  (* entry spans 2M (a PS-set PDE mapping) *)
}

(* Huge entries are tagged with the 2M frame number plus a high marker
   bit. Real virtual page numbers fit in 36 bits (48-bit VA, 12-bit
   pages), so the marker can never collide with a 4K tag, and both page
   sizes share the level arrays — the unified L1/L2 structure of the
   K8. *)
let huge_tag_bit = Int64.shift_left 1L 62
let tag_is_huge tag = Int64.logand tag huge_tag_bit <> 0L

(** Base virtual address covered by a tag (2M- or 4K-aligned). *)
let vaddr_of_tag tag =
  if tag_is_huge tag then
    Int64.shift_left (Int64.logxor tag huge_tag_bit) Pagetable.huge_shift
  else Int64.shift_left tag Phys_mem.page_shift

(** One set-associative translation array. *)
type level = {
  sets : int;
  ways : int;
  tags : int64 array array;  (* [set].(way) = vpn, or -1L for invalid *)
  data : entry option array array;
  lru : int array array;  (* larger = more recently used *)
  mutable tick : int;
}

let make_level ~entries ~ways =
  if entries mod ways <> 0 then invalid_arg "Tlb: entries/ways";
  let sets = entries / ways in
  if sets < 1 then invalid_arg "Tlb: too few entries";
  {
    sets;
    ways;
    tags = Array.init sets (fun _ -> Array.make ways (-1L));
    data = Array.init sets (fun _ -> Array.make ways None);
    lru = Array.init sets (fun _ -> Array.make ways 0);
    tick = 0;
  }

(* [vpn] mod [sets], unsigned. A 4K tag fits an [int]; only a huge tag
   (bit 62 set) takes the 64-bit division. *)
let set_of level vpn =
  let sets = level.sets in
  if sets = 1 then 0
  else
    let v = Int64.to_int vpn in
    if v >= 0 then v mod sets
    else Int64.to_int (Int64.unsigned_rem vpn (Int64.of_int sets))

let level_lookup level vpn =
  let s = set_of level vpn in
  let rec go w =
    if w >= level.ways then None
    else if level.tags.(s).(w) = vpn then begin
      level.tick <- level.tick + 1;
      level.lru.(s).(w) <- level.tick;
      level.data.(s).(w)
    end
    else go (w + 1)
  in
  go 0

let level_insert level vpn entry =
  let s = set_of level vpn in
  (* Reuse a matching or invalid way, else evict the LRU way. *)
  let victim = ref 0 in
  let best = ref max_int in
  (try
     for w = 0 to level.ways - 1 do
       if level.tags.(s).(w) = vpn || level.tags.(s).(w) = -1L then begin
         victim := w;
         raise Exit
       end;
       if level.lru.(s).(w) < !best then begin
         best := level.lru.(s).(w);
         victim := w
       end
     done
   with Exit -> ());
  level.tick <- level.tick + 1;
  level.tags.(s).(!victim) <- vpn;
  level.data.(s).(!victim) <- Some entry;
  level.lru.(s).(!victim) <- level.tick

let level_flush level =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) (-1L)) level.tags;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) None) level.data

type config = {
  l1_entries : int;
  l1_ways : int;
  l2 : (int * int) option;  (* entries, ways *)
  pde_entries : int;  (* 0 = no PDE cache *)
}

(** PTLsim's configuration in the paper's §5 experiment: a single 32-entry
    L1 TLB. *)
let ptlsim_config = { l1_entries = 32; l1_ways = 32; l2 = None; pde_entries = 0 }

(** The real K8's two-level TLB with PDE cache (paper §5). *)
let k8_config =
  { l1_entries = 32; l1_ways = 32; l2 = Some (1024, 4); pde_entries = 24 }

type t = {
  name : string;  (* trace tag, e.g. "dtlb" *)
  l1 : level;
  l2 : level option;
  (* PDE cache: maps the upper 27 VPN bits to the level-1 table, cutting a
     4-load walk to 1 load. Modeled as a tiny fully-associative level. *)
  pde : level option;
}

let create ?(name = "tlb") config =
  {
    name;
    l1 = make_level ~entries:config.l1_entries ~ways:config.l1_ways;
    l2 =
      Option.map (fun (entries, ways) -> make_level ~entries ~ways) config.l2;
    pde =
      (if config.pde_entries > 0 then
         Some (make_level ~entries:config.pde_entries ~ways:config.pde_entries)
       else None);
  }

let vpn_of_vaddr vaddr = Int64.shift_right_logical vaddr Phys_mem.page_shift

let huge_tag_of_vaddr vaddr =
  Int64.logor huge_tag_bit
    (Int64.shift_right_logical vaddr Pagetable.huge_shift)

(** The tag an entry is (or would be) filed under for [vaddr]. *)
let tag_of_entry e vaddr =
  if e.huge then huge_tag_of_vaddr vaddr else vpn_of_vaddr vaddr

(** Build a TLB entry from a successful walk. Huge translations store the
    2M base frame so one entry covers the whole region. *)
let entry_of_walk (tr : Pagetable.translation) =
  {
    vpn = 0L;
    mfn =
      (if tr.Pagetable.huge then
         tr.Pagetable.mfn land lnot (Pagetable.huge_pages - 1)
       else tr.Pagetable.mfn);
    writable = tr.Pagetable.writable;
    user = tr.Pagetable.user;
    nx = tr.Pagetable.nx;
    huge = tr.Pagetable.huge;
  }

(** Physical address of [vaddr] under [e] (valid for both page sizes). *)
let paddr_of e vaddr =
  if e.huge then
    Phys_mem.paddr_of_mfn e.mfn
    + Int64.to_int (Int64.logand vaddr (Int64.of_int Pagetable.huge_mask))
  else
    Phys_mem.paddr_of_mfn e.mfn
    + Int64.to_int (Int64.logand vaddr (Int64.of_int Phys_mem.page_mask))

(** Result of a lookup: where the translation was found. *)
type hit = L1_hit of entry | L2_hit of entry | Tlb_miss

let lookup_raw t vaddr =
  let vpn = vpn_of_vaddr vaddr in
  let hvpn = huge_tag_of_vaddr vaddr in
  let probe lvl =
    match level_lookup lvl vpn with
    | Some _ as h -> h
    | None -> level_lookup lvl hvpn
  in
  match probe t.l1 with
  | Some e -> L1_hit e
  | None ->
    (match t.l2 with
    | None -> Tlb_miss
    | Some l2 ->
      (match probe l2 with
      | Some e ->
        (* Promote into L1 under the page-size-appropriate tag. *)
        level_insert t.l1 (if e.huge then hvpn else vpn) e;
        L2_hit e
      | None -> Tlb_miss))

(** [lookup] minus the trace events: same LRU updates and L2-to-L1
    promotion, nothing recorded. The functional-warming translation path
    of the sampling supervisor uses this so fast-forward phases leave no
    footprint in the measured event stream. *)
let lookup_quiet = lookup_raw

let lookup t vaddr =
  let hit = lookup_raw t vaddr in
  (if !Ptl_trace.Trace.on then
     match hit with
     | L1_hit _ ->
       Ptl_trace.Trace.emit ~info:vaddr ~slot:1 ~tag:t.name Ptl_trace.Trace.Tlb_hit
     | L2_hit _ ->
       Ptl_trace.Trace.emit ~info:vaddr ~slot:2 ~tag:t.name Ptl_trace.Trace.Tlb_hit
     | Tlb_miss ->
       Ptl_trace.Trace.emit ~info:vaddr ~tag:t.name Ptl_trace.Trace.Tlb_miss);
  hit

(** Install a translation after a walk fills it. *)
let insert t vaddr entry =
  let tag = tag_of_entry entry vaddr in
  level_insert t.l1 tag entry;
  Option.iter (fun l2 -> level_insert l2 tag entry) t.l2;
  (* Remember the upper levels of the walk in the PDE cache. *)
  Option.iter
    (fun pde ->
      let upper = Int64.shift_right_logical (vpn_of_vaddr vaddr) 9 in
      level_insert pde upper { entry with vpn = upper })
    t.pde

(** Number of page-walk memory loads needed on a miss: 4 without a PDE
    cache, 1 when the PDE cache covers the upper levels. *)
let walk_loads t vaddr =
  match t.pde with
  | None -> Pagetable.levels
  | Some pde ->
    let upper = Int64.shift_right_logical (vpn_of_vaddr vaddr) 9 in
    (match level_lookup pde upper with Some _ -> 1 | None -> Pagetable.levels)

(** Flush everything (CR3 reload). *)
let flush t =
  level_flush t.l1;
  Option.iter level_flush t.l2;
  Option.iter level_flush t.pde

(* ---------- checkpointing (sampled-simulation parallel workers) ---------- *)

type level_snapshot = {
  ls_tags : int64 array array;
  ls_data : entry option array array;
  ls_lru : int array array;
  ls_tick : int;
}

(** Deep copy of every level's tag/entry/LRU arrays and recency tick.
    Entries are immutable records, so sharing them is safe. *)
type snapshot = {
  sn_l1 : level_snapshot;
  sn_l2 : level_snapshot option;
  sn_pde : level_snapshot option;
}

let level_snapshot lvl =
  {
    ls_tags = Array.map Array.copy lvl.tags;
    ls_data = Array.map Array.copy lvl.data;
    ls_lru = Array.map Array.copy lvl.lru;
    ls_tick = lvl.tick;
  }

let level_restore lvl s =
  if Array.length s.ls_tags <> lvl.sets then
    invalid_arg "Tlb.restore: geometry mismatch";
  for i = 0 to lvl.sets - 1 do
    Array.blit s.ls_tags.(i) 0 lvl.tags.(i) 0 lvl.ways;
    Array.blit s.ls_data.(i) 0 lvl.data.(i) 0 lvl.ways;
    Array.blit s.ls_lru.(i) 0 lvl.lru.(i) 0 lvl.ways
  done;
  lvl.tick <- s.ls_tick

let snapshot t =
  {
    sn_l1 = level_snapshot t.l1;
    sn_l2 = Option.map level_snapshot t.l2;
    sn_pde = Option.map level_snapshot t.pde;
  }

let level_fits lvl s =
  Array.length s.ls_tags = lvl.sets
  && Array.for_all (fun tags -> Array.length tags = lvl.ways) s.ls_tags

(** Whether [snapshot] came from a TLB of this configuration (same
    per-level geometry, same levels present) — the precondition of
    {!restore}. *)
let fits t snapshot =
  level_fits t.l1 snapshot.sn_l1
  && (match (t.l2, snapshot.sn_l2) with
     | Some lvl, Some s -> level_fits lvl s
     | None, None -> true
     | _ -> false)
  &&
  match (t.pde, snapshot.sn_pde) with
  | Some lvl, Some s -> level_fits lvl s
  | None, None -> true
  | _ -> false

let restore t ~snapshot =
  level_restore t.l1 snapshot.sn_l1;
  (match (t.l2, snapshot.sn_l2) with
  | Some lvl, Some s -> level_restore lvl s
  | None, None -> ()
  | _ -> invalid_arg "Tlb.restore: l2 presence mismatch");
  match (t.pde, snapshot.sn_pde) with
  | Some lvl, Some s -> level_restore lvl s
  | None, None -> ()
  | _ -> invalid_arg "Tlb.restore: pde presence mismatch"

let level_diff name lvl s out =
  let note fmt = Printf.ksprintf (fun str -> out := str :: !out) fmt in
  if Array.length s.ls_tags <> lvl.sets then
    note "%s: snapshot geometry mismatch" name
  else begin
    for set = 0 to lvl.sets - 1 do
      for w = 0 to lvl.ways - 1 do
        if lvl.tags.(set).(w) <> s.ls_tags.(set).(w) then
          note "%s set %d way %d: vpn %#Lx vs %#Lx" name set w
            lvl.tags.(set).(w)
            s.ls_tags.(set).(w)
        else begin
          if lvl.data.(set).(w) <> s.ls_data.(set).(w) then
            note "%s set %d way %d: entry differs" name set w;
          if lvl.lru.(set).(w) <> s.ls_lru.(set).(w) then
            note "%s set %d way %d: lru %d vs %d" name set w
              lvl.lru.(set).(w)
              s.ls_lru.(set).(w)
        end
      done
    done;
    if lvl.tick <> s.ls_tick then
      note "%s: tick %d vs %d" name lvl.tick s.ls_tick
  end

(** Compare the live TLB state against a snapshot (tags, entries, LRU
    recency, ticks, every level); returns one line per mismatch. *)
let diff t snapshot =
  let out = ref [] in
  level_diff (t.name ^ ".l1") t.l1 snapshot.sn_l1 out;
  (match (t.l2, snapshot.sn_l2) with
  | Some lvl, Some s -> level_diff (t.name ^ ".l2") lvl s out
  | None, None -> ()
  | _ -> out := (t.name ^ ".l2: presence mismatch") :: !out);
  (match (t.pde, snapshot.sn_pde) with
  | Some lvl, Some s -> level_diff (t.name ^ ".pde") lvl s out
  | None, None -> ()
  | _ -> out := (t.name ^ ".pde: presence mismatch") :: !out);
  List.rev !out

(* ---------- guard inspection hooks ---------- *)

let level_check name lvl =
  let violation = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  for s = 0 to lvl.sets - 1 do
    let seen = Hashtbl.create 8 in
    for w = 0 to lvl.ways - 1 do
      let tag = lvl.tags.(s).(w) in
      if tag <> -1L then begin
        if Hashtbl.mem seen tag then note "%s set %d: duplicate vpn %#Lx" name s tag;
        Hashtbl.replace seen tag ();
        if lvl.data.(s).(w) = None then
          note "%s set %d way %d: valid tag %#Lx with no entry" name s w tag;
        if set_of lvl tag <> s then
          note "%s set %d: vpn %#Lx indexed into the wrong set" name s tag;
        if lvl.lru.(s).(w) > lvl.tick then
          note "%s set %d: lru stamp %d from the future (tick %d)" name s
            lvl.lru.(s).(w) lvl.tick
      end
      else if lvl.data.(s).(w) <> None then
        note "%s set %d way %d: invalid tag with a live entry" name s w
    done
  done;
  !violation

(** Internal tag/entry/LRU consistency of every level. Returns a
    violation description, or None. *)
let check t =
  match level_check (t.name ^ ".l1") t.l1 with
  | Some _ as v -> v
  | None ->
    (match Option.map (level_check (t.name ^ ".l2")) t.l2 with
    | Some (Some _ as v) -> v
    | _ -> Option.join (Option.map (level_check (t.name ^ ".pde")) t.pde))

(** All valid L1/L2 translations as (vpn, entry) pairs — the vpn comes
    from the tag array (the entry's own [vpn] field is not meaningful for
    leaf translations). Used by the guard's TLB↔pagetable agreement
    check. *)
let entries t =
  let out = ref [] in
  let level lvl =
    for s = 0 to lvl.sets - 1 do
      for w = 0 to lvl.ways - 1 do
        match lvl.data.(s).(w) with
        | Some e when lvl.tags.(s).(w) <> -1L -> out := (lvl.tags.(s).(w), e) :: !out
        | _ -> ()
      done
    done
  in
  level t.l1;
  Option.iter level t.l2;
  !out
