(* Memory subsystem tests: physical frames, page-table walking with A/D
   bits, TLBs (including the K8 two-level + PDE-cache configuration),
   set-associative caches, hierarchy latencies with MSHR merging, and
   MOESI coherence invariants. *)

open Ptl_mem
module Stats = Ptl_stats.Statstree

let test_phys_rw () =
  let m = Phys_mem.create () in
  Phys_mem.write64 m 0x1000 0x1122334455667788L;
  Alcotest.(check int64) "read64" 0x1122334455667788L (Phys_mem.read64 m 0x1000);
  Alcotest.(check int) "read8" 0x88 (Phys_mem.read8 m 0x1000);
  Alcotest.(check int) "read8 high" 0x11 (Phys_mem.read8 m 0x1007);
  Phys_mem.write8 m 0x1003 0xAB;
  Alcotest.(check int64) "modified" 0x11223344AB667788L (Phys_mem.read64 m 0x1000)

let test_phys_cross_page () =
  let m = Phys_mem.create () in
  (* write straddling the 0x1FFF/0x2000 frame boundary *)
  Phys_mem.write64 m 0x1FFC 0xCAFEBABE12345678L;
  Alcotest.(check int64) "cross read" 0xCAFEBABE12345678L (Phys_mem.read64 m 0x1FFC);
  Alcotest.(check int) "low frame byte" 0x78 (Phys_mem.read8 m 0x1FFC);
  Alcotest.(check int) "high frame byte" 0xCA (Phys_mem.read8 m 0x2003)

let test_phys_alloc_copy () =
  let m = Phys_mem.create () in
  let mfn1 = Phys_mem.alloc_page m in
  let mfn2 = Phys_mem.alloc_page m in
  Alcotest.(check bool) "distinct" true (mfn1 <> mfn2);
  Phys_mem.write64 m (Phys_mem.paddr_of_mfn mfn1) 7L;
  let snap = Phys_mem.copy m in
  Phys_mem.write64 m (Phys_mem.paddr_of_mfn mfn1) 9L;
  Phys_mem.restore m ~snapshot:snap;
  Alcotest.(check int64) "restored" 7L (Phys_mem.read64 m (Phys_mem.paddr_of_mfn mfn1))

(* Build a tiny address space and exercise the walker. *)
let make_space () =
  let m = Phys_mem.create () in
  let cr3 = Phys_mem.alloc_page m in
  let alloc () = Phys_mem.alloc_page m in
  let data_mfn = Phys_mem.alloc_page m in
  Pagetable.map m ~cr3_mfn:cr3 ~vaddr:0x400000L ~mfn:data_mfn ~writable:true
    ~user:true ~alloc ();
  (m, cr3, data_mfn)

let test_walk_ok () =
  let m, cr3, data_mfn = make_space () in
  match Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400123L ~write:false ~user:true ~exec:false () with
  | Ok tr ->
    Alcotest.(check int) "mfn" data_mfn tr.Pagetable.mfn;
    Alcotest.(check int) "four pte loads" 4 (List.length tr.Pagetable.pte_addrs);
    Alcotest.(check int) "paddr"
      (Phys_mem.paddr_of_mfn data_mfn + 0x123)
      (Pagetable.to_paddr tr 0x400123L)
  | Error _ -> Alcotest.fail "unexpected fault"

let test_walk_fault () =
  let m, cr3, _ = make_space () in
  (match Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x500000L ~write:false ~user:true ~exec:false () with
  | Ok _ -> Alcotest.fail "expected not-present fault"
  | Error f -> Alcotest.(check bool) "not present" true f.Pagetable.not_present);
  (* write to read-only page *)
  let alloc () = Phys_mem.alloc_page m in
  let ro = Phys_mem.alloc_page m in
  Pagetable.map m ~cr3_mfn:cr3 ~vaddr:0x600000L ~mfn:ro ~writable:false ~user:true ~alloc ();
  match Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x600000L ~write:true ~user:true ~exec:false () with
  | Ok _ -> Alcotest.fail "expected protection fault"
  | Error f -> Alcotest.(check bool) "protection" false f.Pagetable.not_present

let test_walk_ad_bits () =
  let m, cr3, _ = make_space () in
  (* After a read walk, the leaf PTE has A set but not D. *)
  (match Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:false ~user:true ~exec:false () with
  | Ok tr ->
    let leaf = List.nth tr.Pagetable.pte_addrs 3 in
    let pte = Phys_mem.read64 m leaf in
    Alcotest.(check bool) "A set" true (Int64.logand pte Pagetable.pte_a <> 0L);
    Alcotest.(check bool) "D clear" true (Int64.logand pte Pagetable.pte_d = 0L);
    (* After a write walk, D is set too. *)
    (match Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:true ~user:true ~exec:false () with
    | Ok _ ->
      let pte = Phys_mem.read64 m leaf in
      Alcotest.(check bool) "D set" true (Int64.logand pte Pagetable.pte_d <> 0L)
    | Error _ -> Alcotest.fail "write walk failed")
  | Error _ -> Alcotest.fail "read walk failed")

let test_walk_noncanonical () =
  let m, cr3, _ = make_space () in
  match
    Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x8000_0000_0000L ~write:false ~user:false ~exec:false ()
  with
  | Ok _ -> Alcotest.fail "expected canonical fault"
  | Error _ -> ()

let test_unmap () =
  let m, cr3, _ = make_space () in
  Pagetable.unmap m ~cr3_mfn:cr3 ~vaddr:0x400000L;
  Alcotest.(check (option int)) "gone" None (Pagetable.probe m ~cr3_mfn:cr3 ~vaddr:0x400000L)

let tlb_entry mfn = { Tlb.vpn = 0L; mfn; writable = true; user = true; nx = false; huge = false }

let test_tlb_hit_miss () =
  let tlb = Tlb.create Tlb.ptlsim_config in
  Alcotest.(check bool) "cold miss" true (Tlb.lookup tlb 0x400000L = Tlb.Tlb_miss);
  Tlb.insert tlb 0x400000L (tlb_entry 42);
  (match Tlb.lookup tlb 0x400FFFL with
  | Tlb.L1_hit e -> Alcotest.(check int) "mfn" 42 e.Tlb.mfn
  | _ -> Alcotest.fail "expected L1 hit");
  (* a different page still misses *)
  Alcotest.(check bool) "other page" true (Tlb.lookup tlb 0x401000L = Tlb.Tlb_miss)

let test_tlb_capacity_eviction () =
  let tlb = Tlb.create Tlb.ptlsim_config in
  (* fill all 32 entries plus one more *)
  for i = 0 to 32 do
    Tlb.insert tlb (Int64.of_int (i * 4096)) (tlb_entry i)
  done;
  (* the first entry must be evicted under LRU *)
  Alcotest.(check bool) "evicted" true (Tlb.lookup tlb 0L = Tlb.Tlb_miss);
  Alcotest.(check bool) "newest present" true (Tlb.lookup tlb (Int64.of_int (32 * 4096)) <> Tlb.Tlb_miss)

let test_tlb_two_level () =
  let tlb = Tlb.create Tlb.k8_config in
  for i = 0 to 63 do
    Tlb.insert tlb (Int64.of_int (i * 4096)) (tlb_entry i)
  done;
  (* Entry 0 fell out of the 32-entry L1 but must hit in the 1024-entry L2. *)
  (match Tlb.lookup tlb 0L with
  | Tlb.L2_hit e -> Alcotest.(check int) "mfn" 0 e.Tlb.mfn
  | Tlb.L1_hit _ -> Alcotest.fail "expected L2, not L1"
  | Tlb.Tlb_miss -> Alcotest.fail "expected L2 hit");
  (* After promotion it now hits in L1. *)
  match Tlb.lookup tlb 0L with
  | Tlb.L1_hit _ -> ()
  | _ -> Alcotest.fail "expected L1 after promotion"

let test_tlb_pde_cache () =
  let tlb = Tlb.create Tlb.k8_config in
  Alcotest.(check int) "cold walk = 4 loads" 4 (Tlb.walk_loads tlb 0x400000L);
  Tlb.insert tlb 0x400000L (tlb_entry 1);
  (* Same 2 MB region: PDE cache covers the upper levels. *)
  Alcotest.(check int) "warm walk = 1 load" 1 (Tlb.walk_loads tlb 0x401000L);
  let no_pde = Tlb.create Tlb.ptlsim_config in
  Tlb.insert no_pde 0x400000L (tlb_entry 1);
  Alcotest.(check int) "ptlsim config always 4" 4 (Tlb.walk_loads no_pde 0x401000L)

let test_tlb_flush () =
  let tlb = Tlb.create Tlb.k8_config in
  Tlb.insert tlb 0x400000L (tlb_entry 1);
  Tlb.flush tlb;
  Alcotest.(check bool) "all flushed" true (Tlb.lookup tlb 0x400000L = Tlb.Tlb_miss)

let small_cache =
  {
    Cache.name = "t";
    size_bytes = 1024;
    line_size = 64;
    ways = 2;
    latency = 3;
    banks = 8;
    replacement = Cache.Lru;
  }

let test_cache_hit_miss () =
  let stats = Stats.create () in
  let c = Cache.create stats small_cache in
  (match Cache.access c 0x1000 ~write:false with
  | Cache.Miss { writeback = None } -> ()
  | _ -> Alcotest.fail "expected clean miss");
  (match Cache.access c 0x1008 ~write:false with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "same line should hit");
  Alcotest.(check int) "hits" 1 (Stats.get stats "cache.t.hits");
  Alcotest.(check int) "misses" 1 (Stats.get stats "cache.t.misses")

let test_cache_eviction_writeback () =
  let stats = Stats.create () in
  let c = Cache.create stats small_cache in
  (* 1024B/64B/2way = 8 sets; addresses mapping to set 0 differ by 512. *)
  ignore (Cache.access c 0x0 ~write:true);
  ignore (Cache.access c 0x200 ~write:false);
  (* Third distinct line in set 0 evicts the LRU (the dirty 0x0 line). *)
  (match Cache.access c 0x400 ~write:false with
  | Cache.Miss { writeback = Some victim } -> Alcotest.(check int) "victim" 0x0 victim
  | _ -> Alcotest.fail "expected dirty writeback");
  Alcotest.(check bool) "evicted line gone" false (Cache.probe c 0x0)

let test_cache_lru_order () =
  let stats = Stats.create () in
  let c = Cache.create stats small_cache in
  ignore (Cache.access c 0x0 ~write:false);
  ignore (Cache.access c 0x200 ~write:false);
  (* touch 0x0 so 0x200 is now LRU *)
  ignore (Cache.access c 0x0 ~write:false);
  ignore (Cache.access c 0x400 ~write:false);
  Alcotest.(check bool) "recently used kept" true (Cache.probe c 0x0);
  Alcotest.(check bool) "lru evicted" false (Cache.probe c 0x200)

let test_cache_banking () =
  let stats = Stats.create () in
  let c = Cache.create stats small_cache in
  Alcotest.(check int) "bank 0" 0 (Cache.bank_of c 0x1000);
  Alcotest.(check int) "bank 1" 1 (Cache.bank_of c 0x1008);
  Alcotest.(check int) "wraps" 0 (Cache.bank_of c 0x1040)

let test_cache_occupancy_bound () =
  let stats = Stats.create () in
  let c = Cache.create stats small_cache in
  for i = 0 to 999 do
    ignore (Cache.access c (i * 64) ~write:(i mod 3 = 0))
  done;
  (* only touched lines can be resident *)
  let resident =
    List.length (List.filter (Cache.probe c) (List.init 1000 (fun i -> i * 64)))
  in
  Alcotest.(check bool) "occupancy within capacity" true (resident <= 16)

let test_hierarchy_latencies () =
  let stats = Stats.create () in
  let h = Hierarchy.create stats Hierarchy.k8_ptlsim in
  (* Cold load: L1 latency + L2 latency + memory. *)
  let lat1 = Hierarchy.load h ~cycle:0 ~paddr:0x10000 in
  Alcotest.(check int) "cold" (3 + 10 + 112) lat1;
  (* Warm hit. *)
  let lat2 = Hierarchy.load h ~cycle:200 ~paddr:0x10000 in
  Alcotest.(check int) "hit" 3 lat2;
  (* L2 hit after L1 eviction is cheaper than memory: evict by filling. *)
  Alcotest.(check bool) "store latency positive" true (Hierarchy.store h ~cycle:300 ~paddr:0x20000 > 0)

let test_hierarchy_mshr_merge () =
  let stats = Stats.create () in
  let h = Hierarchy.create stats Hierarchy.k8_ptlsim in
  let lat1 = Hierarchy.load h ~cycle:0 ~paddr:0x30000 in
  (* Before the first access to another word of the same missing line
     completes, the second access merges into the MSHR: the cache array
     itself already has the line allocated, so it scores a hit; what
     matters is the merge path exists for *misses* to in-flight lines.
     Simulate by invalidating L1 between the two accesses. *)
  ignore (Cache.invalidate (Hierarchy.l1d h) 0x30000);
  let lat2 = Hierarchy.load h ~cycle:5 ~paddr:0x30008 in
  Alcotest.(check bool) "merged shorter" true (lat2 < lat1);
  Alcotest.(check int) "merge = remaining" (lat1 - 5) lat2;
  Alcotest.(check int) "merge counted" 1 (Stats.get stats "mem.mshr_merges")

let test_hierarchy_prefetch () =
  let stats = Stats.create () in
  let h = Hierarchy.create stats Hierarchy.k8_silicon in
  ignore (Hierarchy.load h ~cycle:0 ~paddr:0x40000);
  (* The next line was prefetched into L2 (K8-style): the demand miss pays
     L1+L2 latency instead of going to memory. *)
  let lat = Hierarchy.load h ~cycle:500 ~paddr:0x40040 in
  Alcotest.(check int) "prefetched line close by" (3 + 10) lat;
  Alcotest.(check bool) "prefetch counted" true (Stats.get stats "mem.prefetches" >= 1);
  (* without prefetch the same access pays full memory latency *)
  let h2 = Hierarchy.create ~prefix:"m2" stats Hierarchy.k8_ptlsim in
  ignore (Hierarchy.load h2 ~cycle:0 ~paddr:0x40000);
  Alcotest.(check int) "no prefetch goes to memory" (3 + 10 + 112)
    (Hierarchy.load h2 ~cycle:500 ~paddr:0x40040)

let test_hierarchy_ifetch_and_invalidate () =
  let stats = Stats.create () in
  let h = Hierarchy.create stats Hierarchy.k8_ptlsim in
  let lat1 = Hierarchy.ifetch h ~cycle:0 ~paddr:0x50000 in
  Alcotest.(check bool) "cold ifetch slow" true (lat1 > 100);
  let lat2 = Hierarchy.ifetch h ~cycle:200 ~paddr:0x50000 in
  Alcotest.(check int) "warm ifetch" 3 lat2;
  Hierarchy.invalidate_line h 0x50000;
  let lat3 = Hierarchy.ifetch h ~cycle:400 ~paddr:0x50000 in
  Alcotest.(check bool) "invalidated refetches" true (lat3 > 3)

let test_coherence_moesi () =
  let stats = Stats.create () in
  let d =
    Coherence.create stats
      ~mode:(Coherence.Moesi { transfer_latency = 20; invalidate_latency = 10 })
      ~ncores:2 ~line_size:64
  in
  (* Core 0 reads: exclusive. *)
  Alcotest.(check int) "first read free" 0
    (Coherence.miss_penalty d ~core:0 ~paddr:0x1000 ~write:false);
  Alcotest.(check bool) "E state" true (Coherence.state d ~core:0 ~paddr:0x1000 = Coherence.E);
  (* Core 0 writes (hit upgrade from E is free). *)
  Alcotest.(check int) "E->M free" 0 (Coherence.write_hit_penalty d ~core:0 ~paddr:0x1000);
  Alcotest.(check bool) "M state" true (Coherence.state d ~core:0 ~paddr:0x1000 = Coherence.M);
  (* Core 1 reads: cache-to-cache transfer; core 0 drops to O. *)
  Alcotest.(check int) "dirty transfer" 20
    (Coherence.miss_penalty d ~core:1 ~paddr:0x1000 ~write:false);
  Alcotest.(check bool) "owner O" true (Coherence.state d ~core:0 ~paddr:0x1000 = Coherence.O);
  Alcotest.(check bool) "reader S" true (Coherence.state d ~core:1 ~paddr:0x1000 = Coherence.S);
  (* Core 1 writes: invalidate + transfer. *)
  Alcotest.(check bool) "rfo penalty" true
    (Coherence.miss_penalty d ~core:1 ~paddr:0x1000 ~write:true >= 10);
  Alcotest.(check bool) "old owner I" true (Coherence.state d ~core:0 ~paddr:0x1000 = Coherence.I);
  Alcotest.(check bool) "writer M" true (Coherence.state d ~core:1 ~paddr:0x1000 = Coherence.M);
  Alcotest.(check bool) "invariants" true (Coherence.check_invariants d)

let test_coherence_instant () =
  let stats = Stats.create () in
  let d = Coherence.create stats ~mode:Coherence.Instant ~ncores:4 ~line_size:64 in
  Alcotest.(check int) "always free" 0
    (Coherence.miss_penalty d ~core:0 ~paddr:0x1000 ~write:true);
  Alcotest.(check int) "write hit free" 0 (Coherence.write_hit_penalty d ~core:3 ~paddr:0x1000)

let prop_coherence_invariants =
  QCheck.Test.make ~name:"MOESI invariants hold under random traffic" ~count:300
    QCheck.(list (triple (int_bound 3) (int_bound 15) bool))
    (fun ops ->
      let stats = Stats.create () in
      let d =
        Coherence.create stats
          ~mode:(Coherence.Moesi { transfer_latency = 20; invalidate_latency = 10 })
          ~ncores:4 ~line_size:64
      in
      List.iter
        (fun (core, lineno, write) ->
          let paddr = lineno * 64 in
          if Coherence.state d ~core ~paddr = Coherence.I then
            ignore (Coherence.miss_penalty d ~core ~paddr ~write)
          else if write then ignore (Coherence.write_hit_penalty d ~core ~paddr))
        ops;
      Coherence.check_invariants d)

(* dirty-page tracking: writes (and allocating reads) dirty a page,
   plain reads of existing pages do not, and a delta carries exactly
   the touched footprint *)
let test_phys_dirty_tracking () =
  let m = Phys_mem.create () in
  Phys_mem.write64 m 0x1000 0xAAL;
  Phys_mem.write64 m 0x5000 0xBBL;
  let base = Phys_mem.copy m in
  Phys_mem.clear_dirty m;
  (* the dirty set is what a delta carries *)
  let dirty_count m = Phys_mem.delta_pages (Phys_mem.delta m) in
  Alcotest.(check int) "clean after clear_dirty" 0 (dirty_count m);
  ignore (Phys_mem.read64 m 0x1000);
  Alcotest.(check int) "plain read stays clean" 0 (dirty_count m);
  Phys_mem.write8 m 0x5004 0xCC;
  Alcotest.(check int) "write dirties one page" 1 (dirty_count m);
  (* a read that allocates a zero page is allocation-state mutation *)
  ignore (Phys_mem.read64 m 0x9000);
  Alcotest.(check int) "allocating read dirties" 2 (dirty_count m);
  let d = Phys_mem.delta m in
  Alcotest.(check int) "delta carries the footprint" 2
    (Phys_mem.delta_pages d);
  Alcotest.(check int) "delta bytes = pages x page_size"
    (2 * Phys_mem.page_size) (Phys_mem.delta_bytes d);
  (* base + delta rebuilds the live contents, drift afterwards or not *)
  Phys_mem.write64 m 0x1000 0xDDL;
  let rebuilt = Phys_mem.clone_cow base in
  Phys_mem.apply_delta rebuilt d;
  Alcotest.(check int64) "rebuilt dirty page" 0x000000CC000000BBL
    (Phys_mem.read64 rebuilt 0x5000);
  Alcotest.(check int64) "rebuilt clean page (pre-delta content)" 0xAAL
    (Phys_mem.read64 rebuilt 0x1000);
  Alcotest.(check int64) "rebuilt allocated-by-read page" 0L
    (Phys_mem.read64 rebuilt 0x9000);
  Alcotest.(check int) "rebuilt allocation count"
    (Phys_mem.allocated_pages m) (Phys_mem.allocated_pages rebuilt)

(* copy-on-write clones: reads share the base's bytes, a write copies
   the frame privately and never leaks back into the base *)
let test_phys_clone_cow () =
  let base = Phys_mem.create () in
  Phys_mem.write64 base 0x1000 0x1111L;
  Phys_mem.write64 base 0x2000 0x2222L;
  let c1 = Phys_mem.clone_cow base in
  let c2 = Phys_mem.clone_cow base in
  Alcotest.(check int64) "clone reads base content" 0x1111L
    (Phys_mem.read64 c1 0x1000);
  Phys_mem.write64 c1 0x1000 0xDEADL;
  Alcotest.(check int64) "clone write is private" 0xDEADL
    (Phys_mem.read64 c1 0x1000);
  Alcotest.(check int64) "base unchanged" 0x1111L
    (Phys_mem.read64 base 0x1000);
  Alcotest.(check int64) "sibling clone unchanged" 0x1111L
    (Phys_mem.read64 c2 0x1000);
  (* the unwritten page is still shared verbatim *)
  Alcotest.(check int64) "unwritten page shared" 0x2222L
    (Phys_mem.read64 c1 0x2000);
  Alcotest.(check (list int)) "clone diffs only the written page"
    [ Phys_mem.mfn_of_paddr 0x1000 ]
    (Phys_mem.diff c1 base)

(* ---- A/D discipline: success-only, per level ---- *)

let pte_at m addr = Phys_mem.read64 m addr

let has_bit pte bit = Int64.logand pte bit <> 0L

(* The PTE path for a mapped vaddr, root first, without perturbing A/D. *)
let path_of m cr3 vaddr =
  match
    Pagetable.walk m ~cr3_mfn:cr3 ~vaddr ~write:false ~user:true ~exec:false
      ~set_ad:false ()
  with
  | Ok tr -> tr.Pagetable.pte_addrs
  | Error _ -> Alcotest.fail "path walk failed"

let test_walk_ad_per_level () =
  let m, cr3, _ = make_space () in
  let path = path_of m cr3 0x400000L in
  Alcotest.(check int) "4-level path" 4 (List.length path);
  (* set_ad:false must leave every level untouched *)
  List.iteri
    (fun i addr ->
      Alcotest.(check bool)
        (Printf.sprintf "no A at level %d before any real walk" (3 - i))
        false
        (has_bit (pte_at m addr) Pagetable.pte_a))
    path;
  (* a read walk sets A on all four levels, D nowhere *)
  (match
     Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:false ~user:true
       ~exec:false ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read walk failed");
  List.iteri
    (fun i addr ->
      let lvl = 3 - i in
      Alcotest.(check bool) (Printf.sprintf "A set at level %d" lvl) true
        (has_bit (pte_at m addr) Pagetable.pte_a);
      Alcotest.(check bool) (Printf.sprintf "no D at level %d" lvl) false
        (has_bit (pte_at m addr) Pagetable.pte_d))
    path;
  (* a write walk adds D on the leaf only *)
  (match
     Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:true ~user:true
       ~exec:false ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "write walk failed");
  List.iteri
    (fun i addr ->
      let lvl = 3 - i in
      Alcotest.(check bool)
        (Printf.sprintf "D %s at level %d"
           (if lvl = 0 then "set" else "still clear")
           lvl)
        (lvl = 0)
        (has_bit (pte_at m addr) Pagetable.pte_d))
    path

let test_walk_ad_only_on_success () =
  (* map a read-only page; a faulting write walk must not set A or D on
     any level it visited *)
  let m = Phys_mem.create () in
  let cr3 = Phys_mem.alloc_page m in
  let alloc () = Phys_mem.alloc_page m in
  let data = Phys_mem.alloc_page m in
  Pagetable.map m ~cr3_mfn:cr3 ~vaddr:0x400000L ~mfn:data ~writable:false
    ~user:true ~alloc ();
  let path = path_of m cr3 0x400000L in
  (match
     Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:true ~user:true
       ~exec:false ()
   with
  | Ok _ -> Alcotest.fail "write through a read-only page succeeded"
  | Error _ -> ());
  List.iteri
    (fun i addr ->
      Alcotest.(check bool)
        (Printf.sprintf "faulting walk left level %d clean" (3 - i))
        false
        (has_bit (pte_at m addr)
           (Int64.logor Pagetable.pte_a Pagetable.pte_d)))
    path

(* ---- 2M huge pages: walker and TLB ---- *)

let make_huge_space () =
  let m = Phys_mem.create () in
  let cr3 = Phys_mem.alloc_page m in
  let alloc () = Phys_mem.alloc_page m in
  let block =
    Phys_mem.alloc_pages m ~align:Pagetable.huge_pages Pagetable.huge_pages
  in
  Pagetable.map m ~cr3_mfn:cr3 ~vaddr:0x40000000L ~mfn:block ~writable:true
    ~user:true ~huge:true ~alloc ();
  (m, cr3, block)

let test_huge_walk () =
  let m, cr3, block = make_huge_space () in
  (* an offset deep inside the region: the exact 4K frame comes back *)
  let vaddr = 0x40057123L in
  (match
     Pagetable.walk m ~cr3_mfn:cr3 ~vaddr ~write:true ~user:true ~exec:false ()
   with
  | Ok tr ->
    Alcotest.(check bool) "huge" true tr.Pagetable.huge;
    Alcotest.(check int) "three pte loads" 3 (List.length tr.Pagetable.pte_addrs);
    Alcotest.(check int) "exact 4K frame" (block + 0x57) tr.Pagetable.mfn;
    Alcotest.(check int) "paddr"
      (Phys_mem.paddr_of_mfn block + 0x57123)
      (Pagetable.to_paddr tr vaddr)
  | Error _ -> Alcotest.fail "huge walk failed");
  (* A on all three levels, D on the PS leaf (level 1) *)
  (match
     Pagetable.walk m ~cr3_mfn:cr3 ~vaddr ~write:false ~user:true ~exec:false
       ~set_ad:false ()
   with
  | Ok tr ->
    List.iteri
      (fun i addr ->
        let lvl = 3 - i in
        Alcotest.(check bool) (Printf.sprintf "A at level %d" lvl) true
          (has_bit (pte_at m addr) Pagetable.pte_a);
        Alcotest.(check bool)
          (Printf.sprintf "D %s at level %d"
             (if lvl = 1 then "set" else "clear")
             lvl)
          (lvl = 1)
          (has_bit (pte_at m addr) Pagetable.pte_d))
      tr.Pagetable.pte_addrs
  | Error _ -> Alcotest.fail "probe walk failed");
  (* misaligned huge mappings are rejected outright *)
  (match
     Pagetable.map m ~cr3_mfn:cr3 ~vaddr:0x40001000L ~mfn:block ~writable:true
       ~user:true ~huge:true
       ~alloc:(fun () -> Phys_mem.alloc_page m)
       ()
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "misaligned huge vaddr accepted");
  (* unmap drops the whole 2M region *)
  Pagetable.unmap m ~cr3_mfn:cr3 ~vaddr:0x400FF000L;
  Alcotest.(check (option int)) "whole region gone" None
    (Pagetable.probe m ~cr3_mfn:cr3 ~vaddr:0x40057000L)

let test_tlb_huge_entry () =
  let m, cr3, block = make_huge_space () in
  let tlb = Tlb.create Tlb.k8_config in
  let tr =
    match
      Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x40057123L ~write:false ~user:true
        ~exec:false ()
    with
    | Ok tr -> tr
    | Error _ -> Alcotest.fail "walk failed"
  in
  let e = Tlb.entry_of_walk tr in
  Alcotest.(check bool) "entry tagged huge" true e.Tlb.huge;
  Alcotest.(check int) "entry stores the 2M base frame" block e.Tlb.mfn;
  Tlb.insert tlb 0x40057123L e;
  (* one entry covers every 4K page of the region *)
  (match Tlb.lookup tlb 0x401FF000L with
  | Tlb.L1_hit e' ->
    Alcotest.(check int) "paddr through the huge entry"
      (Phys_mem.paddr_of_mfn block + 0x1FF458)
      (Tlb.paddr_of e' 0x401FF458L)
  | _ -> Alcotest.fail "expected a huge hit across the region");
  (* ...but not the neighbouring region *)
  Alcotest.(check bool) "next 2M region misses" true
    (Tlb.lookup tlb 0x40200000L = Tlb.Tlb_miss)

(* ---- page-walk caches ---- *)

let test_pwc_basics () =
  let m, cr3, _ = make_space () in
  let pwc = Pwc.create ~entries:4 () in
  Alcotest.(check int) "cold: all 4 loads" 4
    (Pwc.loads_left pwc 0x400000L ~walk_len:4);
  let tr =
    match
      Pagetable.walk m ~cr3_mfn:cr3 ~vaddr:0x400000L ~write:false ~user:true
        ~exec:false ()
    with
    | Ok tr -> tr
    | Error _ -> Alcotest.fail "walk failed"
  in
  Pwc.insert pwc 0x400000L ~pte_addrs:tr.Pagetable.pte_addrs;
  let before_hit = Pwc.snapshot pwc in
  (* same 2M region: the deepest (PT) cache cuts the walk to one load *)
  Alcotest.(check int) "warm same region: 1 load" 1
    (Pwc.loads_left pwc 0x401000L ~walk_len:4);
  (* the hit moved the hit counter (a pure hit leaves misses alone) *)
  Alcotest.(check bool) "hits counted" true
    (List.exists
       (fun l -> Test_checkpoint.contains l "hit/miss counters")
       (Pwc.diff pwc before_hit));
  (* same 1G region, different 2M: the PD-table cache leaves two loads *)
  Alcotest.(check int) "same 1G region: 2 loads" 2
    (Pwc.loads_left pwc 0x10200000L ~walk_len:4);
  (* a different 512G slot misses every depth *)
  Alcotest.(check int) "far away: all 4 loads" 4
    (Pwc.loads_left pwc 0x80_0000_0000L ~walk_len:4);
  Pwc.flush pwc;
  Alcotest.(check int) "flush empties every depth" 4
    (Pwc.loads_left pwc 0x401000L ~walk_len:4);
  Alcotest.(check int) "flush leaves no entries" 0
    (List.length (Pwc.entries pwc))

(* ---- translation memo exactness ---- *)

module Vmem = Ptl_arch.Vmem
module Context = Ptl_arch.Context
module Fault = Ptl_arch.Fault
module Rng = Ptl_util.Rng

(* One step of a random schedule. Page indices pick from [memo_vaddrs],
   address-space indices from the two roots, frame indices from the
   data-frame pool. *)
type pte_how = By_write64 | By_write8 | By_frame

type memo_op =
  | Map of { space : int; page : int; frame : int; w : bool; u : bool; nx : bool }
  | Map_huge of { space : int; w : bool; u : bool; nx : bool }
  | Unmap of { space : int; page : int }
  | Pte_write of { space : int; page : int; level : int; bit : int64; how : pte_how }
  | Scribble of { frame : int; slot : int; target : int; flags : int64 }
  | Set_cr3 of int
  | Set_user of bool
  | Checkpoint
  | Restore
  | Take_delta
  | Apply_delta
  | Clone
  | Translate of { page : int; off : int; write : bool; fetch : bool }

let huge_va = 0x4000_0000L

(* user pages, a second PDE, the huge region, a kernel-half page, a
   non-canonical address and one whose low 63 bits alias 0x400000 *)
let memo_vaddrs =
  [| 0x40_0000L; 0x40_1000L; 0x40_2000L; 0x60_0000L; huge_va;
     Int64.add huge_va 0x1000L; Int64.add huge_va 0x1F_F000L;
     0xFFFF_8000_0000_0000L; 0x0000_8000_0000_0000L; 0x8000_0000_0040_0000L |]

(* bits a raw PTE write toggles: P, W, U, A, D, PS, NX *)
let pte_bits =
  [| Pagetable.pte_p; Pagetable.pte_w; Pagetable.pte_u; Pagetable.pte_a;
     Pagetable.pte_d; Pagetable.pte_ps; Int64.min_int |]

let gen_memo_op rng =
  let b () = Rng.bool rng and likely () = Rng.int rng 4 > 0 in
  let space = Rng.int rng 2 and page = Rng.int rng (Array.length memo_vaddrs) in
  match Rng.int rng 200 with
  | n when n < 24 ->
    Map { space; page; frame = Rng.int rng 6; w = likely (); u = likely (); nx = not (likely ()) }
  | n when n < 28 -> Map_huge { space; w = likely (); u = likely (); nx = not (likely ()) }
  | n when n < 34 -> Unmap { space; page }
  | n when n < 50 ->
    let how = match Rng.int rng 3 with 0 -> By_write64 | 1 -> By_write8 | _ -> By_frame in
    Pte_write { space; page; level = Rng.int rng 4; bit = Rng.choose rng pte_bits; how }
  | n when n < 52 ->
    Scribble
      { frame = Rng.int rng 16; slot = Rng.int rng 512; target = Rng.int rng 16;
        flags = Int64.of_int (Rng.int rng 0x80) }
  | n when n < 58 -> Set_cr3 space
  | n when n < 64 -> Set_user (b ())
  | n when n < 67 -> Checkpoint
  | n when n < 70 -> Restore
  | n when n < 73 -> Take_delta
  | n when n < 76 -> Apply_delta
  | n when n < 77 -> Clone
  | _ ->
    Translate
      { page; off = (if Rng.int rng 8 = 0 then 0xFFF else Rng.int rng 0x1000);
        write = b (); fetch = Rng.int rng 4 = 0 }

(* A memory under test: its address spaces, the data-frame pool and the
   checkpoint state the schedule builds up. *)
type memo_world = {
  mutable m : Phys_mem.t;
  mutable env : Vmem.env;
  ctx : Context.t;
  roots : int array;
  pool : int array;
  mutable snap : Phys_mem.t option;
  mutable saved : Phys_mem.delta option;
}

let memo_world () =
  let m = Phys_mem.create () in
  let roots = Array.init 2 (fun _ -> Phys_mem.alloc_page m) in
  let pool = Array.init 6 (fun _ -> Phys_mem.alloc_page m) in
  let ctx = Context.create ~vcpu_id:0 in
  ctx.Context.cr3 <- roots.(0);
  { m; env = Vmem.create m; ctx; roots; pool; snap = None; saved = None }

(* Physical address of the entry for [vaddr] at [level] (3 = root),
   if every level above it is present. *)
let pte_addr_at m ~cr3 ~vaddr ~level =
  let rec go l table =
    let pa = Phys_mem.paddr_of_mfn table + (8 * Pagetable.vpn_index vaddr l) in
    if l = level then Some pa
    else
      let pte = Phys_mem.read64 m pa in
      if Int64.logand pte Pagetable.pte_p = 0L then None
      else go (l - 1) (Pagetable.pte_mfn pte)
  in
  go 3 cr3

let canonical vaddr =
  let top = Int64.shift_right vaddr 47 in
  top = 0L || top = -1L

(* Apply a state-changing op; [Translate] is the caller's. *)
let memo_apply w op =
  let alloc () = Phys_mem.alloc_page w.m in
  match op with
  | Map { space; page; frame; w = writable; u; nx } ->
    let vaddr = memo_vaddrs.(page) in
    if canonical vaddr then
      Pagetable.map w.m ~cr3_mfn:w.roots.(space) ~vaddr ~mfn:w.pool.(frame) ~writable
        ~user:u ~nx ~alloc ()
  | Map_huge { space; w = writable; u; nx } ->
    (* the data frames are never touched, so none is allocated *)
    Pagetable.map w.m ~cr3_mfn:w.roots.(space) ~vaddr:huge_va ~mfn:0x40000
      ~writable ~user:u ~nx ~huge:true ~alloc ()
  | Unmap { space; page } ->
    let vaddr = memo_vaddrs.(page) in
    if canonical vaddr then
      Pagetable.unmap w.m ~cr3_mfn:w.roots.(space) ~vaddr
  | Pte_write { space; page; level; bit; how } -> (
    let vaddr = memo_vaddrs.(page) in
    match
      if canonical vaddr then
        pte_addr_at w.m ~cr3:w.roots.(space) ~vaddr ~level
      else None
    with
    | None -> ()
    | Some pa -> (
      let old = Phys_mem.read64 w.m pa in
      let v = Int64.logxor old bit in
      match how with
      | By_write64 -> Phys_mem.write64 w.m pa v
      | By_write8 ->
        for i = 0 to 7 do
          let byte x = Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xFF in
          if byte v <> byte old then Phys_mem.write8 w.m (pa + i) (byte v)
        done
      | By_frame ->
        let b = Phys_mem.frame w.m (Phys_mem.mfn_of_paddr pa) in
        Bytes.set_int64_le b (pa land Phys_mem.page_mask) v))
  | Scribble { frame; slot; target; flags } ->
    let mfn = w.roots.(0) + frame in
    let pte =
      Int64.logor (Int64.of_int ((w.roots.(0) + target) lsl Phys_mem.page_shift)) flags
    in
    Phys_mem.write64 w.m (Phys_mem.paddr_of_mfn mfn + (8 * slot)) pte
  | Set_cr3 i -> w.ctx.Context.cr3 <- w.roots.(i)
  | Set_user u -> w.ctx.Context.mode <- (if u then Context.User else Context.Kernel)
  | Checkpoint ->
    w.snap <- Some (Phys_mem.copy w.m);
    Phys_mem.clear_dirty w.m
  | Restore -> Option.iter (fun s -> Phys_mem.restore w.m ~snapshot:s) w.snap
  | Take_delta -> w.saved <- Some (Phys_mem.delta w.m)
  | Apply_delta ->
    (* overlaid on the live memory: the pages it carries go back to
       their contents when it was taken *)
    Option.iter (Phys_mem.apply_delta w.m) w.saved
  | Clone ->
    w.m <- Phys_mem.clone_cow (Phys_mem.copy w.m);
    w.env <- Vmem.create w.m
  | Translate _ -> ()

type memo_outcome = Paddr of int | Pf of int64 * bool * bool * bool * bool

let pp_outcome = function
  | Paddr pa -> Printf.sprintf "paddr %#x" pa
  | Pf (va, np, wr, us, fe) ->
    Printf.sprintf "#PF %Lx np=%b w=%b u=%b f=%b" va np wr us fe

(* The translation under test, through [Vmem]. *)
let vmem_translate w ~vaddr ~write ~fetch =
  match Vmem.translate w.env w.ctx ~vaddr ~write ~fetch ~at_rip:0L with
  | pa -> Paddr pa
  | exception
      Fault.Guest_fault
        { Fault.kind = Fault.Page_fault { vaddr; not_present; write; user; fetch }; _ } ->
    Pf (vaddr, not_present, write, user, fetch)

(* The referee: a fresh walk every time, faults recorded in cr2 the way
   the architecture does. *)
let walk_translate w ~vaddr ~write ~fetch =
  let user = w.ctx.Context.mode = Context.User in
  match
    Pagetable.walk w.m ~cr3_mfn:w.ctx.Context.cr3 ~vaddr ~write ~user ~exec:fetch ()
  with
  | Ok tr -> Paddr (Pagetable.to_paddr tr vaddr)
  | Error f ->
    w.ctx.Context.cr2 <- vaddr;
    Pf (vaddr, f.Pagetable.not_present, write, user, fetch)

(* Run [ops] on two identical worlds, translating through [translate] on
   one and walking afresh on the other. The first step where the
   results, cr2, frame bytes (A/D bits included), allocation or dirty
   deltas differ, if any. *)
let memo_divergence ~translate ops =
  let a = memo_world () and b = memo_world () in
  let rec go step = function
    | [] -> None
    | op :: rest ->
      let results =
        match op with
        | Translate { page; off; write; fetch } ->
          let vaddr = Int64.add memo_vaddrs.(page) (Int64.of_int off) in
          let ra = translate a ~vaddr ~write ~fetch
          and rb = walk_translate b ~vaddr ~write ~fetch in
          if ra <> rb then Some (pp_outcome ra ^ " vs " ^ pp_outcome rb) else None
        | _ ->
          memo_apply a op;
          memo_apply b op;
          None
      in
      let why =
        match results with
        | Some _ -> results
        | None ->
          if a.ctx.Context.cr2 <> b.ctx.Context.cr2 then Some "cr2"
          else if Phys_mem.diff a.m b.m <> [] then Some "frame bytes"
          else if Phys_mem.delta a.m <> Phys_mem.delta b.m then Some "dirty delta"
          else None
      in
      (match why with
      | Some w -> Some (Printf.sprintf "step %d: %s" step w)
      | None -> go (step + 1) rest)
  in
  go 0 ops

(* Half the steps repeat the last translation, as real code re-touches
   its pages: that is what the memo serves. *)
let memo_schedule seed =
  let rng = Rng.create seed in
  let last = ref None in
  List.init 200 (fun _ ->
      match !last with
      | Some op when Rng.bool rng -> op
      | _ ->
        let op = gen_memo_op rng in
        (match op with Translate _ -> last := Some op | _ -> ());
        op)

let prop_memo_exact =
  QCheck.Test.make ~name:"translation memo = uncached walk, step by step" ~count:60
    QCheck.int (fun seed ->
      match memo_divergence ~translate:vmem_translate (memo_schedule seed) with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "schedule %d: %s" seed why)

(* A memo that ignores the page-table epoch: the property above must
   catch it on the same schedules. *)
let test_memo_stale_caught () =
  let stale_translate () =
    let memo = Hashtbl.create 16 in
    fun w ~vaddr ~write ~fetch ->
      let key =
        (Int64.shift_right vaddr 12, w.ctx.Context.cr3, w.ctx.Context.mode, write, fetch)
      in
      let off = Int64.to_int vaddr land Phys_mem.page_mask in
      match Hashtbl.find_opt memo key with
      | Some page -> Paddr (page lor off)
      | None -> (
        match vmem_translate w ~vaddr ~write ~fetch with
        | Paddr pa as r ->
          Hashtbl.replace memo key (pa land lnot Phys_mem.page_mask);
          r
        | r -> r)
  in
  let rng = Test_seed.rng ~salt:25 () in
  let caught = ref 0 in
  for _ = 1 to 20 do
    let ops = memo_schedule (Rng.int rng 1_000_000) in
    if memo_divergence ~translate:(stale_translate ()) ops <> None then incr caught
  done;
  Alcotest.(check bool)
    (Printf.sprintf "stale memo caught on %d of 20 schedules" !caught)
    true (!caught >= 10)

(* ---- the shared zero frame against a reference memory ---- *)

(* Random sequences of allocations, reads of absent frames, every write
   path, snapshots, copy-on-write clones, deltas and dirty-set clears,
   run on a [Phys_mem] and on a reference map from MFN to private bytes.
   After every step the frames, their contents, [allocated_pages] and
   the dirty set must match. A write that reached a shared frame would
   change every other frame still mapping it, so afterwards a fresh
   memory's new frames must read zero too. *)

type ref_mem = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable next : int;
  mutable count : int;  (* allocated_pages *)
  dirty : (int, unit) Hashtbl.t;
}

let zf_frames = 12  (* MFNs 0..11; the allocator starts at 4 *)

let ref_touch r mfn =
  if not (Hashtbl.mem r.pages mfn) then begin
    Hashtbl.replace r.pages mfn (Bytes.make Phys_mem.page_size '\x00');
    r.count <- r.count + 1;
    Hashtbl.replace r.dirty mfn ()
  end

let ref_write r pa v =
  let mfn = Phys_mem.mfn_of_paddr pa in
  ref_touch r mfn;
  Bytes.set (Hashtbl.find r.pages mfn) (pa land Phys_mem.page_mask) (Char.chr (v land 0xFF));
  Hashtbl.replace r.dirty mfn ()

let ref_copy r =
  let pages = Hashtbl.create 16 in
  Hashtbl.iter (fun mfn b -> Hashtbl.replace pages mfn (Bytes.copy b)) r.pages;
  { pages; next = r.next; count = r.count; dirty = Hashtbl.copy r.dirty }

type zf_world = {
  mutable zm : Phys_mem.t;
  r : ref_mem;
  mutable zsnap : (Phys_mem.t * ref_mem) option;
  mutable zdelta : (Phys_mem.delta * (int * Bytes.t) list * int * int) option;
}

(* The memory the reference describes: its frames and nothing else. *)
let of_ref r =
  let x = Phys_mem.create () in
  Hashtbl.iter
    (fun mfn b ->
      Phys_mem.blit_string x (Bytes.to_string b) 0 (Phys_mem.paddr_of_mfn mfn) Phys_mem.page_size)
    r.pages;
  x

(* The MFNs a memory's delta carries: its dirty set. *)
let dirty_mfns m =
  let x = Phys_mem.create () in
  Phys_mem.apply_delta x (Phys_mem.delta m);
  Phys_mem.diff x (Phys_mem.create ())

let zf_step rng w =
  let m = w.zm and r = w.r in
  let pa () = Rng.int rng (zf_frames * Phys_mem.page_size) in
  let byte () = 1 + Rng.int rng 255 in
  match Rng.int rng 16 with
  | 0 ->
    let mfn = Phys_mem.alloc_page m in
    ref_touch r r.next;
    r.next <- r.next + 1;
    if mfn <> r.next - 1 then Some "alloc_page mfn" else None
  | 1 ->
    let n = 1 + Rng.int rng 3 and align = 1 + Rng.int rng 2 in
    let first = Phys_mem.alloc_pages m ~align n in
    let rfirst = (r.next + align - 1) / align * align in
    for i = 0 to n - 1 do ref_touch r (rfirst + i) done;
    r.next <- rfirst + n;
    if first <> rfirst then Some "alloc_pages mfn" else None
  | 2 | 3 ->
    (* a read, of an absent frame as often as not *)
    let a = pa () in
    let v = Phys_mem.read8 m a in
    ref_touch r (Phys_mem.mfn_of_paddr a);
    let rv = Char.code (Bytes.get (Hashtbl.find r.pages (Phys_mem.mfn_of_paddr a)) (a land Phys_mem.page_mask)) in
    if v <> rv then Some "read8 value" else None
  | 4 ->
    let a = pa () and v = byte () in
    Phys_mem.write8 m a v;
    ref_write r a v;
    None
  | 5 ->
    (* page-straddling as often as not *)
    let a = if Rng.bool rng then pa () else (Phys_mem.page_size * (1 + Rng.int rng (zf_frames - 1))) - 3 in
    let v = Rng.next64 rng in
    Phys_mem.write64 m a v;
    for i = 0 to 7 do ref_write r (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i))) done;
    None
  | 6 ->
    let a = pa () in
    let s = String.init (1 + Rng.int rng 40) (fun _ -> Char.chr (byte ())) in
    let a = min a ((zf_frames * Phys_mem.page_size) - String.length s) in
    Phys_mem.write_string m a s;
    String.iteri (fun i c -> ref_write r (a + i) (Char.code c)) s;
    None
  | 7 ->
    let a = pa () in
    let len = Rng.int rng (Phys_mem.page_size - (a land Phys_mem.page_mask) + 1) in
    let s = String.init len (fun _ -> Char.chr (byte ())) in
    Phys_mem.blit_string m s 0 a len;
    String.iteri (fun i c -> ref_write r (a + i) (Char.code c)) s;
    None
  | 8 ->
    let a = pa () and v = byte () in
    Bytes.set (Phys_mem.frame m (Phys_mem.mfn_of_paddr a)) (a land Phys_mem.page_mask) (Char.chr v);
    ref_write r a v;
    None
  | 9 ->
    let snap = Phys_mem.copy m in
    w.zsnap <- Some (snap, ref_copy r);
    if Phys_mem.diff m snap <> [] then Some "copy differs" else None
  | 10 -> (
    match w.zsnap with
    | None -> None
    | Some (snap, rs) ->
      Phys_mem.restore m ~snapshot:snap;
      Hashtbl.reset r.pages;
      Hashtbl.reset r.dirty;
      Hashtbl.iter
        (fun mfn b ->
          Hashtbl.replace r.pages mfn (Bytes.copy b);
          Hashtbl.replace r.dirty mfn ())
        rs.pages;
      r.next <- rs.next;
      r.count <- rs.count;
      None)
  | 11 ->
    (* the live memory itself may be the base, shared frames and all,
       as long as nothing writes it afterwards *)
    w.zm <- Phys_mem.clone_cow (if Rng.bool rng then m else Phys_mem.copy m);
    Hashtbl.reset r.dirty;
    None
  | 12 ->
    let pages =
      Hashtbl.fold (fun mfn () acc -> (mfn, Bytes.copy (Hashtbl.find r.pages mfn)) :: acc) r.dirty []
    in
    w.zdelta <- Some (Phys_mem.delta m, pages, r.next, r.count);
    None
  | 13 -> (
    match w.zdelta with
    | None -> None
    | Some (d, pages, next, count) ->
      Phys_mem.apply_delta m d;
      List.iter
        (fun (mfn, b) ->
          Hashtbl.replace r.pages mfn (Bytes.copy b);
          Hashtbl.replace r.dirty mfn ())
        pages;
      r.next <- next;
      r.count <- count;
      None)
  | 14 ->
    Phys_mem.clear_dirty m;
    Hashtbl.reset r.dirty;
    None
  | _ ->
    (* a run of writes to one frame: the memo path *)
    let a = pa () land lnot 0xFF in
    for i = 0 to 15 do
      Phys_mem.write8 m (a + i) (i + 1);
      ref_write r (a + i) (i + 1)
    done;
    None

let zf_check w =
  let m = w.zm and r = w.r in
  if Phys_mem.allocated_pages m <> r.count then Some "allocated_pages"
  else if Phys_mem.diff m (of_ref r) <> [] then Some "frames"
  else if dirty_mfns m <> List.sort compare (Hashtbl.fold (fun mfn () acc -> mfn :: acc) r.dirty [])
  then Some "dirty set"
  else None

let prop_zero_frame =
  QCheck.Test.make ~name:"shared zero frame = private zeroed frames" ~count:150 QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let w =
        {
          zm = Phys_mem.create ~first_mfn:4 ();
          r = { pages = Hashtbl.create 16; next = 4; count = 0; dirty = Hashtbl.create 16 };
          zsnap = None;
          zdelta = None;
        }
      in
      let rec go step =
        if step = 60 then None
        else
          match zf_step rng w with
          | Some why -> Some (step, why)
          | None -> ( match zf_check w with Some why -> Some (step, why) | None -> go (step + 1))
      in
      let fresh = Phys_mem.create () in
      let zero = String.make Phys_mem.page_size '\x00' in
      let fresh_zero () =
        let mfn = Phys_mem.alloc_page fresh in
        Phys_mem.read_string fresh (Phys_mem.paddr_of_mfn mfn) Phys_mem.page_size = zero
        && Phys_mem.read_string fresh 0x7000 Phys_mem.page_size = zero
      in
      match go 0 with
      | Some (step, why) -> QCheck.Test.fail_reportf "seed %d, step %d: %s" seed step why
      | None -> fresh_zero () || QCheck.Test.fail_reportf "seed %d: a fresh frame is not zero" seed)

let suite =
  [
    Alcotest.test_case "phys rw" `Quick test_phys_rw;
    Alcotest.test_case "phys dirty tracking" `Quick test_phys_dirty_tracking;
    Alcotest.test_case "phys clone cow" `Quick test_phys_clone_cow;
    Alcotest.test_case "phys cross page" `Quick test_phys_cross_page;
    Alcotest.test_case "phys alloc/copy/restore" `Quick test_phys_alloc_copy;
    Alcotest.test_case "walk ok" `Quick test_walk_ok;
    Alcotest.test_case "walk faults" `Quick test_walk_fault;
    Alcotest.test_case "walk A/D bits" `Quick test_walk_ad_bits;
    Alcotest.test_case "walk A/D per level" `Quick test_walk_ad_per_level;
    Alcotest.test_case "walk A/D only on success" `Quick
      test_walk_ad_only_on_success;
    Alcotest.test_case "walk non-canonical" `Quick test_walk_noncanonical;
    Alcotest.test_case "unmap" `Quick test_unmap;
    Alcotest.test_case "huge walk" `Quick test_huge_walk;
    Alcotest.test_case "tlb huge entry" `Quick test_tlb_huge_entry;
    Alcotest.test_case "pwc basics" `Quick test_pwc_basics;
    Alcotest.test_case "tlb hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb eviction" `Quick test_tlb_capacity_eviction;
    Alcotest.test_case "tlb two-level" `Quick test_tlb_two_level;
    Alcotest.test_case "tlb pde cache" `Quick test_tlb_pde_cache;
    Alcotest.test_case "tlb flush" `Quick test_tlb_flush;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache eviction + writeback" `Quick test_cache_eviction_writeback;
    Alcotest.test_case "cache lru order" `Quick test_cache_lru_order;
    Alcotest.test_case "cache banking" `Quick test_cache_banking;
    Alcotest.test_case "cache occupancy bound" `Quick test_cache_occupancy_bound;
    Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
    Alcotest.test_case "hierarchy mshr merge" `Quick test_hierarchy_mshr_merge;
    Alcotest.test_case "hierarchy prefetch" `Quick test_hierarchy_prefetch;
    Alcotest.test_case "hierarchy ifetch + invalidate" `Quick test_hierarchy_ifetch_and_invalidate;
    Alcotest.test_case "coherence moesi" `Quick test_coherence_moesi;
    Alcotest.test_case "coherence instant" `Quick test_coherence_instant;
    Test_seed.to_alcotest prop_coherence_invariants;
    Test_seed.to_alcotest prop_memo_exact;
    Alcotest.test_case "memo that ignores the epoch is caught" `Quick
      test_memo_stale_caught;
    Test_seed.to_alcotest prop_zero_frame;
  ]
