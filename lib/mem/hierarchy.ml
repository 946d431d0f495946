(** The per-core cache hierarchy: L1 I/D, unified L2, optional unified L3,
    miss buffers (MSHRs) and an optional next-line prefetcher.

    This composes {!Cache} arrays into the default PTLsim data cache
    hierarchy (paper §2.2: L1 D, L1 I, unified L2, unified L3, DTLB and
    ITLB, with movement of lines through miss buffers). Accesses return a
    latency in cycles; outstanding misses are tracked in an MSHR table so
    overlapping misses to the same line merge instead of paying the full
    memory latency twice (non-blocking cache behaviour the out-of-order
    core depends on). *)

module Int_tbl = Ptl_util.Int_tbl
module Stats = Ptl_stats.Statstree

type config = {
  l1d : Cache.config;
  l1i : Cache.config;
  l2 : Cache.config;
  l3 : Cache.config option;
  mem_latency : int;
  mshrs : int;
  prefetch_next_line : bool;
}

(** The paper's §5 configuration of PTLsim-as-K8: 64 KB 2-way L1 D and I,
    1 MB 16-way L2 10 cycles away, no L3, memory 112 cycles away, no
    prefetch (PTLsim had none — one source of its Table 1 L1-miss delta). *)
let k8_ptlsim =
  {
    l1d = Cache.k8_l1d;
    l1i = Cache.k8_l1i;
    l2 = Cache.k8_l2;
    l3 = None;
    mem_latency = 112;
    mshrs = 8;
    prefetch_next_line = false;
  }

(** The reference-silicon configuration: same geometry plus the K8's
    hardware prefetcher. *)
let k8_silicon = { k8_ptlsim with prefetch_next_line = true }

type t = {
  config : config;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t option;
  (* line paddr -> cycle at which the fill completes *)
  mshr : int Int_tbl.t;
  (* no entry of [mshr] completes before this cycle ([max_int] when it
     is empty), so expiry has nothing to drop until then *)
  mutable mshr_next : int;
  loads : Stats.counter;
  stores : Stats.counter;
  ifetches : Stats.counter;
  prefetches : Stats.counter;
  mshr_merges : Stats.counter;
  (* Optional extra latency charged on misses that must consult other
     cores (installed by the multicore coherence layer). *)
  mutable remote_penalty : paddr:int -> write:bool -> int;
  (* Upgrade penalty on write hits to lines other cores may share. *)
  mutable remote_write_hit : paddr:int -> int;
}

let create ?(prefix = "mem") stats config =
  {
    config;
    l1d = Cache.create ~stats_prefix:prefix stats config.l1d;
    l1i = Cache.create ~stats_prefix:prefix stats config.l1i;
    l2 = Cache.create ~stats_prefix:prefix stats config.l2;
    l3 = Option.map (fun c -> Cache.create ~stats_prefix:prefix stats c) config.l3;
    mshr = Int_tbl.create 64;
    mshr_next = max_int;
    loads = Stats.counter stats (prefix ^ ".loads");
    stores = Stats.counter stats (prefix ^ ".stores");
    ifetches = Stats.counter stats (prefix ^ ".ifetches");
    prefetches = Stats.counter stats (prefix ^ ".prefetches");
    mshr_merges = Stats.counter stats (prefix ^ ".mshr_merges");
    remote_penalty = (fun ~paddr:_ ~write:_ -> 0);
    remote_write_hit = (fun ~paddr:_ -> 0);
  }

let set_remote_penalty t f = t.remote_penalty <- f
let set_remote_write_hit t f = t.remote_write_hit <- f

let l1d t = t.l1d

let earliest_mshr t = Int_tbl.fold (fun _ r acc -> min r acc) t.mshr max_int

(* Drop completed MSHR entries. Nothing completes before [mshr_next], so
   the table is only folded on an access at or after that cycle. *)
let expire_mshrs t ~cycle =
  if t.mshr_next <= cycle then begin
    let dead = Int_tbl.fold (fun line ready acc -> if ready <= cycle then line :: acc else acc) t.mshr [] in
    List.iter (Int_tbl.remove t.mshr) dead;
    t.mshr_next <- earliest_mshr t
  end

(* Latency to bring a line into the given L1 from below, filling lower
   levels on the way. *)
let miss_latency t ~write ~paddr =
  let l2_result = Cache.access t.l2 paddr ~write:false in
  let after_l2 =
    match l2_result with
    | Cache.Hit -> t.config.l2.latency
    | Cache.Miss _ ->
      (match t.l3 with
      | None -> t.config.l2.latency + t.config.mem_latency
      | Some l3 ->
        (match Cache.access l3 paddr ~write:false with
        | Cache.Hit -> t.config.l2.latency + Cache.latency l3
        | Cache.Miss _ ->
          t.config.l2.latency + Cache.latency l3 + t.config.mem_latency))
  in
  after_l2 + t.remote_penalty ~paddr ~write

let prefetch t paddr =
  if t.config.prefetch_next_line then begin
    let next = Cache.line_addr t.l1d paddr + t.config.l1d.line_size in
    if not (Cache.probe t.l2 next) then begin
      Stats.incr t.prefetches;
      if !Ptl_trace.Trace.on then
        Ptl_trace.Trace.emit ~info:(Int64.of_int next) ~tag:"next-line"
          Ptl_trace.Trace.Prefetch;
      (* The K8 prefetcher fills into L2; L1D still takes the (cheap)
         miss but the line is close by. *)
      Cache.fill t.l2 next
    end
  end

(* ---------- functional warming (sampled simulation) ---------- *)

(* Mirror of [miss_latency]'s fill path with no latency and no counters:
   on an L1 miss the line is brought in through L2 (and L3 when present),
   updating tags/LRU at every level it passes. *)
let warm_miss t ~paddr ~l1 ~write =
  if not (Cache.probe t.l2 paddr) then
    Option.iter (fun l3 -> Cache.warm l3 paddr ~write:false) t.l3;
  Cache.warm t.l2 paddr ~write:false;
  Cache.warm l1 paddr ~write

let warm_data t ~paddr ~write =
  if Cache.probe t.l1d paddr then Cache.warm t.l1d paddr ~write
  else begin
    warm_miss t ~paddr ~l1:t.l1d ~write;
    (* keep the prefetcher's L2 footprint warm too, silently *)
    if t.config.prefetch_next_line then begin
      let next = Cache.line_addr t.l1d paddr + t.config.l1d.Cache.line_size in
      if not (Cache.probe t.l2 next) then Cache.fill t.l2 next
    end
  end

(** Functional warming: touch the hierarchy as [load]/[store]/[ifetch]
    would, updating tags, LRU and dirty state only — no latency, no MSHR
    traffic, no statistics, no trace events. *)
let warm_load t ~paddr = warm_data t ~paddr ~write:false

let warm_store t ~paddr = warm_data t ~paddr ~write:true

let warm_ifetch t ~paddr =
  if Cache.probe t.l1i paddr then Cache.warm t.l1i paddr ~write:false
  else warm_miss t ~paddr ~l1:t.l1i ~write:false

let data_access t ~cycle ~paddr ~write =
  expire_mshrs t ~cycle;
  let line = Cache.line_addr t.l1d paddr in
  match Cache.access t.l1d paddr ~write with
  | Cache.Hit ->
    t.config.l1d.latency + if write then t.remote_write_hit ~paddr else 0
  | Cache.Miss _ ->
    (match Int_tbl.find_opt t.mshr line with
    | Some ready when ready > cycle ->
      (* Merge with the outstanding miss. *)
      Stats.incr t.mshr_merges;
      if !Ptl_trace.Trace.on then
        Ptl_trace.Trace.emit ~info:(Int64.of_int paddr) ~tag:"mshr-merge"
          Ptl_trace.Trace.Cache_miss;
      ready - cycle
    | _ ->
      let extra =
        (* A full MSHR file delays the new miss until the earliest
           outstanding fill returns. *)
        if Int_tbl.length t.mshr >= t.config.mshrs then begin
          max 0 (earliest_mshr t - cycle)
        end
        else 0
      in
      let lat = t.config.l1d.latency + extra + miss_latency t ~write ~paddr in
      Int_tbl.replace t.mshr line (cycle + lat);
      t.mshr_next <- min t.mshr_next (cycle + lat);
      prefetch t paddr;
      lat)

(** Timed data load; returns latency in cycles. *)
let load t ~cycle ~paddr =
  Stats.incr t.loads;
  data_access t ~cycle ~paddr ~write:false

(** Timed data store (write-allocate, write-back); returns latency. *)
let store t ~cycle ~paddr =
  Stats.incr t.stores;
  data_access t ~cycle ~paddr ~write:true

(** Timed instruction fetch; returns latency. *)
let ifetch t ~cycle ~paddr =
  expire_mshrs t ~cycle;
  Stats.incr t.ifetches;
  match Cache.access t.l1i paddr ~write:false with
  | Cache.Hit -> t.config.l1i.latency
  | Cache.Miss _ -> t.config.l1i.latency + miss_latency t ~write:false ~paddr

(** Invalidate a line everywhere (coherence, SMC handling). *)
let invalidate_line t paddr =
  ignore (Cache.invalidate t.l1d paddr);
  ignore (Cache.invalidate t.l1i paddr);
  ignore (Cache.invalidate t.l2 paddr);
  Option.iter (fun l3 -> ignore (Cache.invalidate l3 paddr)) t.l3

(* ---------- checkpointing (sampled-simulation parallel workers) ---------- *)

(** Checkpoint of every cache level plus the MSHR table. The coherence
    callbacks ([remote_penalty] / [remote_write_hit]) are installation
    state, not contents, and stay with the live hierarchy. *)
type snapshot = {
  sn_l1d : Cache.snapshot;
  sn_l1i : Cache.snapshot;
  sn_l2 : Cache.snapshot;
  sn_l3 : Cache.snapshot option;
  sn_mshr : (int * int) list;  (* (line, ready-cycle), sorted by line *)
}

let snapshot t =
  {
    sn_l1d = Cache.snapshot t.l1d;
    sn_l1i = Cache.snapshot t.l1i;
    sn_l2 = Cache.snapshot t.l2;
    sn_l3 = Option.map Cache.snapshot t.l3;
    sn_mshr =
      List.sort compare (Int_tbl.fold (fun k v acc -> (k, v) :: acc) t.mshr []);
  }

(** Whether [snapshot] came from a hierarchy of this geometry (every
    cache fits, same levels present) — the precondition of {!restore}. *)
let fits t snapshot =
  Cache.fits t.l1d snapshot.sn_l1d
  && Cache.fits t.l1i snapshot.sn_l1i
  && Cache.fits t.l2 snapshot.sn_l2
  &&
  match (t.l3, snapshot.sn_l3) with
  | Some l3, Some s -> Cache.fits l3 s
  | None, None -> true
  | _ -> false

let restore t ~snapshot =
  Cache.restore t.l1d ~snapshot:snapshot.sn_l1d;
  Cache.restore t.l1i ~snapshot:snapshot.sn_l1i;
  Cache.restore t.l2 ~snapshot:snapshot.sn_l2;
  (match (t.l3, snapshot.sn_l3) with
  | Some l3, Some s -> Cache.restore l3 ~snapshot:s
  | None, None -> ()
  | _ -> invalid_arg "Hierarchy.restore: l3 presence mismatch");
  Int_tbl.reset t.mshr;
  List.iter (fun (k, v) -> Int_tbl.replace t.mshr k v) snapshot.sn_mshr;
  t.mshr_next <- earliest_mshr t

(** Compare the live hierarchy against a snapshot; returns one line per
    mismatch across every cache level and the MSHR table. *)
let diff t snapshot =
  let mshr_live =
    List.sort compare (Int_tbl.fold (fun k v acc -> (k, v) :: acc) t.mshr [])
  in
  Cache.diff t.l1d snapshot.sn_l1d
  @ Cache.diff t.l1i snapshot.sn_l1i
  @ Cache.diff t.l2 snapshot.sn_l2
  @ (match (t.l3, snapshot.sn_l3) with
    | Some l3, Some s -> Cache.diff l3 s
    | None, None -> []
    | _ -> [ "L3: presence mismatch" ])
  @
  if mshr_live <> snapshot.sn_mshr then
    [
      Printf.sprintf "mshr: %d live entries vs %d in snapshot"
        (List.length mshr_live)
        (List.length snapshot.sn_mshr);
    ]
  else []

(* ---------- guard inspection hooks ---------- *)

(** MSHR-leak check: a fill whose completion cycle lies beyond any
    latency the hierarchy can legitimately produce (worst-case miss chain
    through every level plus full-MSHR queueing and a generous coherence
    allowance) was inserted by a bug and will never expire. Completed
    entries awaiting lazy expiry are fine. Returns a violation, or None. *)
let mshr_check t ~cycle =
  let worst_single =
    t.config.l1d.Cache.latency + t.config.l2.Cache.latency
    + (match t.config.l3 with Some c -> c.Cache.latency | None -> 0)
    + t.config.mem_latency
  in
  (* remote_penalty (coherence) adds an unknown but bounded cost *)
  let bound = (t.config.mshrs + 2) * (worst_single + 1024) in
  (* the lowest leaked line, so the report does not depend on table order *)
  let leaked =
    Int_tbl.fold
      (fun line ready acc ->
        if ready > cycle + bound && (acc < 0 || line < acc) then line else acc)
      t.mshr (-1)
  in
  if leaked < 0 then None
  else
    let ready = Int_tbl.find t.mshr leaked in
    Some
      (Printf.sprintf
         "MSHR for line %#x completes at cycle %d, %d cycles out (bound %d): leaked entry"
         leaked ready (ready - cycle) bound)

(** Structural consistency of every cache level plus the MSHR table. *)
let check t ~cycle =
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  Cache.check t.l1d
  <|> (fun () -> Cache.check t.l1i)
  <|> (fun () -> Cache.check t.l2)
  <|> (fun () -> match t.l3 with Some l3 -> Cache.check l3 | None -> None)
  <|> (fun () -> mshr_check t ~cycle)
