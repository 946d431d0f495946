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
  ]
