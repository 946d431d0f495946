(* Virtual-memory scenario layer tests (lib/vm): demand faults populate
   lazily from the right backing, protection and unmapped accesses are
   classified, watermark-driven CLOCK reclaim bounds the resident set
   with swap round-tripping contents, shootdown IPIs reach remote VCPUs
   sharing the address space, and 2M promotion/splitting preserve the
   memory image byte-for-byte. *)

module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Context = Ptl_arch.Context
module Stats = Ptl_stats.Statstree
module Vm = Ptl_vm.Vm

let vec_test = 34

let make_vm ?shootdown_vec ?(watermark = 0) ?(batch = 8) () =
  let mem = Pm.create () in
  let stats = Stats.create () in
  let vm = Vm.create ?shootdown_vec ~watermark ~batch ~mem stats in
  let ctx = Context.create ~vcpu_id:0 in
  ctx.Context.cr3 <- Pm.alloc_page mem;
  Vm.attach_ctx vm ctx;
  (vm, mem, ctx, stats)

let fault vm ctx ~vaddr ~write =
  Vm.handle_fault vm ctx ~cr3:ctx.Context.cr3 ~vaddr ~write

let result_name = function
  | Vm.Resolved -> "resolved"
  | Vm.Unmapped -> "unmapped"
  | Vm.Prot_violation -> "prot"

let check_result name expected got =
  Alcotest.(check string) name (result_name expected) (result_name got)

let read64_at mem ~cr3 ~vaddr =
  match Pt.walk mem ~cr3_mfn:cr3 ~vaddr ~write:false ~user:true ~exec:false () with
  | Ok tr -> Pm.read64 mem (Pt.to_paddr tr vaddr)
  | Error _ -> Alcotest.fail "walk failed on a supposedly-mapped page"

let write64_at mem ~cr3 ~vaddr v =
  match Pt.walk mem ~cr3_mfn:cr3 ~vaddr ~write:true ~user:true ~exec:false () with
  | Ok tr -> Pm.write64 mem (Pt.to_paddr tr vaddr) v
  | Error _ -> Alcotest.fail "write walk failed on a supposedly-mapped page"

(* pages of [pages] starting at [start] that the page tables map *)
let mapped_pages mem ~cr3 ~start ~pages =
  List.length
    (List.filter
       (fun i ->
         let vaddr = Int64.add start (Int64.of_int (i * Pm.page_size)) in
         Pt.probe mem ~cr3_mfn:cr3 ~vaddr <> None)
       (List.init pages Fun.id))

(* ---- demand faults ---- *)

let test_demand_fault () =
  let vm, mem, ctx, stats = make_vm () in
  let cr3 = ctx.Context.cr3 in
  Vm.add_vma vm ~cr3 ~start:0x400000L ~pages:16 ~writable:true ~backing:Vm.Zero;
  let resident () = mapped_pages mem ~cr3 ~start:0x400000L ~pages:16 in
  Alcotest.(check int) "nothing resident before first touch" 0 (resident ());
  Alcotest.(check bool) "page table empty before first touch" true
    (Pt.probe mem ~cr3_mfn:cr3 ~vaddr:0x400000L = None);
  check_result "first touch resolves" Vm.Resolved
    (fault vm ctx ~vaddr:0x400123L ~write:false);
  Alcotest.(check int) "one page resident" 1 (resident ());
  Alcotest.(check int64) "anonymous page reads zero" 0L
    (read64_at mem ~cr3 ~vaddr:0x400120L);
  (* second fault on the same page is a no-op retry *)
  check_result "retry resolves" Vm.Resolved
    (fault vm ctx ~vaddr:0x400456L ~write:true);
  Alcotest.(check int) "still one page" 1 (resident ());
  Alcotest.(check int) "exactly one hard fault" 1 (Stats.get stats "vm.faults");
  (* classification *)
  check_result "outside every vma" Vm.Unmapped
    (fault vm ctx ~vaddr:0x9000000L ~write:false);
  Vm.add_vma vm ~cr3 ~start:0x500000L ~pages:4 ~writable:false
    ~backing:Vm.Zero;
  check_result "write to a read-only vma" Vm.Prot_violation
    (fault vm ctx ~vaddr:0x500000L ~write:true);
  check_result "read of a read-only vma" Vm.Resolved
    (fault vm ctx ~vaddr:0x500000L ~write:false)

let test_image_backing () =
  let vm, mem, ctx, _ = make_vm () in
  let cr3 = ctx.Context.cr3 in
  let img = String.init 6000 (fun i -> Char.chr (i mod 251)) in
  Vm.add_vma vm ~cr3 ~start:0x400000L ~pages:4 ~writable:false
    ~backing:(Vm.Image { bytes = img; base = 0x400000L });
  check_result "second image page faults in" Vm.Resolved
    (fault vm ctx ~vaddr:0x401800L ~write:false);
  (* bytes inside the image come from the blob; the tail past it is zero *)
  (match Pt.probe mem ~cr3_mfn:cr3 ~vaddr:0x401000L with
  | Some mfn ->
    let page = Pm.read_string mem (Pm.paddr_of_mfn mfn) Pm.page_size in
    Alcotest.(check int) "offset 0x1000 of the image" (0x1000 mod 251)
      (Char.code page.[0]);
    Alcotest.(check int) "last mapped image byte" (5999 mod 251)
      (Char.code page.[6000 - 0x1000 - 1]);
    Alcotest.(check int) "past the image reads zero" 0
      (Char.code page.[6000 - 0x1000])
  | None -> Alcotest.fail "image page not mapped")

(* ---- reclaim + swap ---- *)

let test_reclaim_and_swap () =
  (* budget of 8 resident pages (the floor), 24-page working set: the
     CLOCK must evict, and evicted contents must come back intact *)
  let vm, mem, ctx, stats = make_vm ~watermark:8 ~batch:2 () in
  let cr3 = ctx.Context.cr3 in
  Vm.add_vma vm ~cr3 ~start:0x400000L ~pages:24 ~writable:true
    ~backing:Vm.Zero;
  for i = 0 to 23 do
    let vaddr = Int64.add 0x400000L (Int64.of_int (i * Pm.page_size)) in
    check_result "touch resolves" Vm.Resolved (fault vm ctx ~vaddr ~write:true);
    write64_at mem ~cr3 ~vaddr (Int64.of_int (0xABC000 + i))
  done;
  Alcotest.(check bool) "evictions happened" true
    (Stats.get stats "vm.evictions" > 0);
  let resident = mapped_pages mem ~cr3 ~start:0x400000L ~pages:24 in
  Alcotest.(check bool)
    (Printf.sprintf "resident set bounded (%d pages)" resident)
    true (resident <= 10);
  (* every page — evicted or resident — still holds its stamp *)
  for i = 0 to 23 do
    let vaddr = Int64.add 0x400000L (Int64.of_int (i * Pm.page_size)) in
    check_result "re-touch resolves" Vm.Resolved
      (fault vm ctx ~vaddr ~write:false);
    Alcotest.(check int64)
      (Printf.sprintf "page %d contents survived eviction" i)
      (Int64.of_int (0xABC000 + i))
      (read64_at mem ~cr3 ~vaddr)
  done

let test_clock_second_chance () =
  (* a page whose A bit stays set must survive a reclaim pass that
     evicts an unreferenced one: fill the 8-page budget, reference only
     the first page (the walk sets its A bit), and fault one more *)
  let vm, mem, ctx, _ = make_vm ~watermark:8 ~batch:1 () in
  let cr3 = ctx.Context.cr3 in
  let page i = Int64.add 0x400000L (Int64.of_int (i * Pm.page_size)) in
  Vm.add_vma vm ~cr3 ~start:0x400000L ~pages:9 ~writable:true ~backing:Vm.Zero;
  for i = 0 to 7 do
    ignore (fault vm ctx ~vaddr:(page i) ~write:true)
  done;
  ignore (read64_at mem ~cr3 ~vaddr:(page 0));
  ignore (fault vm ctx ~vaddr:(page 8) ~write:true);
  Alcotest.(check bool) "referenced page survives" true
    (Pt.probe mem ~cr3_mfn:cr3 ~vaddr:(page 0) <> None);
  Alcotest.(check bool) "unreferenced page evicted" true
    (Pt.probe mem ~cr3_mfn:cr3 ~vaddr:(page 1) = None)

(* ---- shootdown IPIs ---- *)

let test_shootdown_two_vcpus () =
  (* an eviction shoots down its address space *)
  let vm, _, ctx0, stats = make_vm ~shootdown_vec:vec_test ~watermark:8 ~batch:1 () in
  let cr3 = ctx0.Context.cr3 in
  (* a second running VCPU on the same address space, and a third on a
     different one *)
  let ctx1 = Context.create ~vcpu_id:1 in
  ctx1.Context.cr3 <- cr3;
  let ctx2 = Context.create ~vcpu_id:2 in
  ctx2.Context.cr3 <- cr3 + 1;
  Vm.attach_ctx vm ctx1;
  Vm.attach_ctx vm ctx2;
  let gen0 = ctx0.Context.tlb_generation in
  let gen1 = ctx1.Context.tlb_generation in
  let gen2 = ctx2.Context.tlb_generation in
  Vm.add_vma vm ~cr3 ~start:0x400000L ~pages:9 ~writable:true ~backing:Vm.Zero;
  for i = 0 to 8 do
    let vaddr = Int64.add 0x400000L (Int64.of_int (i * Pm.page_size)) in
    ignore (fault vm ctx0 ~vaddr ~write:true)
  done;
  Alcotest.(check bool) "local tlb flushed" true
    (ctx0.Context.tlb_generation > gen0);
  Alcotest.(check bool) "sharing vcpu flushed" true
    (ctx1.Context.tlb_generation > gen1);
  Alcotest.(check int) "other address space untouched" gen2
    ctx2.Context.tlb_generation;
  Alcotest.(check bool) "IPIs raised on the running sharers" true
    (Context.has_pending_irq ctx0 && Context.has_pending_irq ctx1);
  Alcotest.(check bool) "no IPI across address spaces" false
    (Context.has_pending_irq ctx2);
  Alcotest.(check bool) "shootdowns counted" true (Stats.get stats "vm.shootdowns" >= 2)

(* ---- 2M promotion / splitting ---- *)

let huge_base = 0x40000000L (* 2M-aligned *)

let test_promote_and_split () =
  let vm, mem, ctx, _ = make_vm () in
  let cr3 = ctx.Context.cr3 in
  Vm.add_vma vm ~cr3 ~start:huge_base ~pages:Pt.huge_pages ~writable:true
    ~backing:Vm.Zero;
  (* populate two 4K pages and stamp them *)
  ignore (fault vm ctx ~vaddr:huge_base ~write:true);
  let mid = Int64.add huge_base 0x57000L in
  ignore (fault vm ctx ~vaddr:mid ~write:true);
  write64_at mem ~cr3 ~vaddr:huge_base 0x1111L;
  write64_at mem ~cr3 ~vaddr:mid 0x2222L;
  (* promotion outside any vma is refused *)
  Alcotest.(check bool) "promote outside a vma refused" true
    (Vm.promote vm ~cr3 ~vaddr:0x80000000L = None);
  (match Vm.promote vm ~cr3 ~vaddr:mid with
  | None -> Alcotest.fail "promote refused inside a covering vma"
  | Some block ->
    Alcotest.(check int) "block is 2M-aligned" 0 (block mod Pt.huge_pages));
  (match
     Pt.walk mem ~cr3_mfn:cr3 ~vaddr:mid ~write:false ~user:true ~exec:false ()
   with
  | Ok tr ->
    Alcotest.(check bool) "translation is huge" true tr.Pt.huge;
    Alcotest.(check int) "huge walk takes 3 loads" 3
      (List.length tr.Pt.pte_addrs)
  | Error _ -> Alcotest.fail "post-promote walk failed");
  Alcotest.(check int64) "stamp 1 survived promotion" 0x1111L
    (read64_at mem ~cr3 ~vaddr:huge_base);
  Alcotest.(check int64) "stamp 2 survived promotion" 0x2222L
    (read64_at mem ~cr3 ~vaddr:mid);
  (* an unpopulated page inside the region is now readable zero *)
  Alcotest.(check int64) "unpopulated page is zero after promotion" 0L
    (read64_at mem ~cr3 ~vaddr:(Int64.add huge_base 0x100000L));
  (* split back to 4K over the same frames *)
  Alcotest.(check bool) "split succeeds on a huge mapping" true
    (Vm.split vm ~cr3 ~vaddr:mid);
  Alcotest.(check bool) "second split is a no-op" false
    (Vm.split vm ~cr3 ~vaddr:mid);
  (match
     Pt.walk mem ~cr3_mfn:cr3 ~vaddr:mid ~write:false ~user:true ~exec:false ()
   with
  | Ok tr ->
    Alcotest.(check bool) "translation is 4K again" false tr.Pt.huge;
    Alcotest.(check int) "4K walk takes 4 loads" 4
      (List.length tr.Pt.pte_addrs)
  | Error _ -> Alcotest.fail "post-split walk failed");
  Alcotest.(check int64) "stamp 1 survived the split" 0x1111L
    (read64_at mem ~cr3 ~vaddr:huge_base);
  Alcotest.(check int64) "stamp 2 survived the split" 0x2222L
    (read64_at mem ~cr3 ~vaddr:mid)

let suite =
  [
    Alcotest.test_case "demand fault classification" `Quick test_demand_fault;
    Alcotest.test_case "image-backed fill" `Quick test_image_backing;
    Alcotest.test_case "reclaim bounds residency, swap restores" `Quick
      test_reclaim_and_swap;
    Alcotest.test_case "CLOCK gives referenced pages a second chance" `Quick
      test_clock_second_chance;
    Alcotest.test_case "shootdown IPIs reach sharing VCPUs" `Quick
      test_shootdown_two_vcpus;
    Alcotest.test_case "2M promote and split preserve memory" `Quick
      test_promote_and_split;
  ]
