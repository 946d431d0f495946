(** The virtual-memory scenario layer: lazily-populated address spaces,
    demand-fault resolution, 2M-page promotion/splitting, watermark-driven
    reclaim and TLB-shootdown orchestration.

    Division of labour mirrors the minios kernel model: the *policy* here
    is host-side bookkeeping (VMA lists, the CLOCK hand, the swap store),
    exactly like a real kernel's mm structures live outside the faulting
    instruction — but every guest-visible consequence is architectural:
    faults are delivered through the simulated IDT and handled by real
    guest entry/exit code, mappings are edited in the simulated page
    tables, and invalidations reach remote VCPUs as interrupt IPIs, so the
    kernel-mode cycle accounting covers genuine memory-management work.

    Reclaim runs CLOCK (second chance) over the hardware accessed bits the
    walker sets: each pass over the resident-frame queue clears A on
    referenced pages and evicts unreferenced ones. Evicted page contents
    go to a host-side swap store and come back on the next fault, so
    eviction is always safe regardless of backing. *)

module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Context = Ptl_arch.Context
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace

(** What fills a page of a mapping on first touch: zeroes (anonymous
    heap/stack) or bytes of a program image at [base]. *)
type backing = Zero | Image of { bytes : string; base : int64 }

type vma = {
  vma_start : int64;  (* page-aligned *)
  vma_pages : int;
  vma_writable : bool;
  vma_backing : backing;
}

type space = { sp_cr3 : int; mutable sp_vmas : vma list }

(* One resident demand-paged frame, queued in CLOCK order. *)
type frame = { fr_cr3 : int; fr_vaddr : int64; fr_mfn : int }

type fault_result = Resolved | Unmapped | Prot_violation

type t = {
  mem : Pm.t;
  stats : Stats.t;
  mutable ctxs : Context.t list;  (* VCPUs reachable by shootdown IPIs *)
  shootdown_vec : int option;
  watermark : int;  (* resident-frame budget; 0 = unlimited *)
  batch : int;  (* evictions per reclaim pass *)
  spaces : (int, space) Hashtbl.t;
  clock : frame Queue.t;
  (* (cr3, page vaddr) -> mfn for every frame this layer mapped; the
     authoritative resident set (CLOCK entries may be stale after unmap) *)
  resident : (int * int64, int) Hashtbl.t;
  swap : (int * int64, string) Hashtbl.t;
  mutable free : int list;  (* recycled frames *)
  c_faults : Stats.counter;
  c_fills : Stats.counter;
  c_swap_ins : Stats.counter;
  c_swap_outs : Stats.counter;
  c_evictions : Stats.counter;
  c_shootdowns : Stats.counter;
  c_promotions : Stats.counter;
  c_splits : Stats.counter;
}

let create ?(prefix = "vm") ?shootdown_vec ?(watermark = 0) ?(batch = 8) ~mem
    stats =
  {
    mem;
    stats;
    ctxs = [];
    shootdown_vec;
    watermark;
    batch = max 1 batch;
    spaces = Hashtbl.create 8;
    clock = Queue.create ();
    resident = Hashtbl.create 64;
    swap = Hashtbl.create 64;
    free = [];
    c_faults = Stats.counter stats (prefix ^ ".faults");
    c_fills = Stats.counter stats (prefix ^ ".fills");
    c_swap_ins = Stats.counter stats (prefix ^ ".swap_ins");
    c_swap_outs = Stats.counter stats (prefix ^ ".swap_outs");
    c_evictions = Stats.counter stats (prefix ^ ".evictions");
    c_shootdowns = Stats.counter stats (prefix ^ ".shootdowns");
    c_promotions = Stats.counter stats (prefix ^ ".promotions");
    c_splits = Stats.counter stats (prefix ^ ".splits");
  }

(** Register a VCPU as a shootdown-IPI target. *)
let attach_ctx t ctx = if not (List.memq ctx t.ctxs) then t.ctxs <- ctx :: t.ctxs

let space t ~cr3 =
  match Hashtbl.find_opt t.spaces cr3 with
  | Some sp -> sp
  | None ->
    let sp = { sp_cr3 = cr3; sp_vmas = [] } in
    Hashtbl.add t.spaces cr3 sp;
    sp

let page_base vaddr =
  Int64.logand vaddr (Int64.lognot (Int64.of_int Pm.page_mask))

(** Declare a lazily-populated mapping. Overlaps are resolved newest-first. *)
let add_vma t ~cr3 ~start ~pages ~writable ~backing =
  let sp = space t ~cr3 in
  sp.sp_vmas <-
    { vma_start = page_base start; vma_pages = pages; vma_writable = writable;
      vma_backing = backing }
    :: sp.sp_vmas

let find_vma t ~cr3 ~vaddr =
  match Hashtbl.find_opt t.spaces cr3 with
  | None -> None
  | Some sp ->
    List.find_opt
      (fun v ->
        vaddr >= v.vma_start
        && Int64.sub vaddr v.vma_start
           < Int64.of_int (v.vma_pages * Pm.page_size))
      sp.sp_vmas

(* ---- TLB invalidation ---- *)

(** Invalidate the translation structures of every VCPU on address space
    [cr3]. Flushes are immediate (generation bump) so no core can consume
    a stale translation; the invalidation *cost* is modeled by the
    shootdown IPI, which runs the guest's interrupt entry/exit path on
    each affected running VCPU. *)
let shootdown t ~cr3 =
  List.iter
    (fun (ctx : Context.t) ->
      if ctx.Context.cr3 = cr3 then begin
        Context.flush_tlbs ctx;
        match t.shootdown_vec with
        | Some vec when ctx.Context.running ->
          Context.raise_irq ctx vec;
          Stats.incr t.c_shootdowns;
          if !Trace.on then
            Trace.emit ~core:ctx.Context.vcpu_id ~info:(Int64.of_int cr3)
              Trace.Tlb_shootdown
        | _ -> ()
      end)
    t.ctxs

(* ---- frames and fills ---- *)

let alloc_frame t =
  match t.free with
  | mfn :: rest ->
    t.free <- rest;
    (* recycled frames carry stale contents; zero before reuse *)
    let b = Pm.frame t.mem mfn in
    Bytes.fill b 0 Pm.page_size '\x00';
    mfn
  | [] -> Pm.alloc_page t.mem

(* Fill the frame for [page_va] from swap if the page was evicted before,
   else from its VMA backing. *)
let fill_frame t ~cr3 ~page_va ~mfn (vma : vma) =
  let paddr = Pm.paddr_of_mfn mfn in
  match Hashtbl.find_opt t.swap (cr3, page_va) with
  | Some contents ->
    Hashtbl.remove t.swap (cr3, page_va);
    Stats.incr t.c_swap_ins;
    Pm.write_string t.mem paddr contents
  | None -> (
    Stats.incr t.c_fills;
    match vma.vma_backing with
    | Zero -> ()  (* fresh frames are already zeroed *)
    | Image { bytes; base } ->
      let len = String.length bytes in
      for i = 0 to Pm.page_size - 1 do
        let off = Int64.to_int (Int64.sub (Int64.add page_va (Int64.of_int i)) base) in
        if off >= 0 && off < len then Pm.write8 t.mem (paddr + i) (Char.code bytes.[off])
      done)

(* ---- reclaim: CLOCK with second chance over hardware A bits ---- *)

let evict t (fr : frame) =
  (* save contents to swap, unmap, recycle the frame *)
  let contents = Pm.read_string t.mem (Pm.paddr_of_mfn fr.fr_mfn) Pm.page_size in
  Hashtbl.replace t.swap (fr.fr_cr3, fr.fr_vaddr) contents;
  Stats.incr t.c_swap_outs;
  Stats.incr t.c_evictions;
  Pt.unmap t.mem ~cr3_mfn:fr.fr_cr3 ~vaddr:fr.fr_vaddr;
  Hashtbl.remove t.resident (fr.fr_cr3, fr.fr_vaddr);
  t.free <- fr.fr_mfn :: t.free;
  shootdown t ~cr3:fr.fr_cr3

(* Evict up to [n] frames, giving referenced pages a second chance. The
   scan is bounded so a fully-referenced resident set terminates after
   clearing every A bit (two passes). [keep] protects the page being
   faulted in right now. *)
let reclaim t ~keep n =
  let budget = ref n in
  let scans = ref (2 * (Queue.length t.clock + 1)) in
  while !budget > 0 && !scans > 0 && not (Queue.is_empty t.clock) do
    decr scans;
    let fr = Queue.pop t.clock in
    let key = (fr.fr_cr3, fr.fr_vaddr) in
    match Hashtbl.find_opt t.resident key with
    | Some mfn when mfn = fr.fr_mfn ->
      if keep = key then Queue.push fr t.clock
      else begin
        match Pt.leaf_pte t.mem ~cr3_mfn:fr.fr_cr3 ~vaddr:fr.fr_vaddr with
        | Some (pte_addr, pte, 0) when Int64.logand pte Pt.pte_a <> 0L ->
          (* referenced: clear A, second chance *)
          Pm.write64 t.mem pte_addr (Int64.logand pte (Int64.lognot Pt.pte_a));
          Queue.push fr t.clock
        | Some (_, _, 0) ->
          evict t fr;
          decr budget
        | Some _ | None ->
          (* huge-mapped or already unmapped: drop the stale record *)
          Hashtbl.remove t.resident key
      end
    | _ -> ()  (* stale CLOCK entry (page already evicted/unmapped) *)
  done

(* ---- fault resolution ---- *)

(** Resolve a #PF at [vaddr] in address space [cr3]: allocate and map a
    frame on first touch (running reclaim first when the resident budget
    is exhausted) and fill it from swap or the VMA backing. [ctx] is the
    faulting VCPU (its TLBs see the new mapping via the page tables; no
    flush is needed to *add* a translation). *)
let handle_fault t (ctx : Context.t) ~cr3 ~vaddr ~write =
  ignore ctx;
  match find_vma t ~cr3 ~vaddr with
  | None -> Unmapped
  | Some vma ->
    if write && not vma.vma_writable then Prot_violation
    else begin
      let page_va = page_base vaddr in
      let key = (cr3, page_va) in
      if Hashtbl.mem t.resident key then
        (* raced retry: the mapping already exists *)
        Resolved
      else begin
        Stats.incr t.c_faults;
        if !Trace.on then
          Trace.emit ~info:vaddr ~tag:(if write then "w" else "r")
            Trace.Page_fault;
        (* keep a floor under the budget: a single instruction can need
           code + stack + two data pages at once *)
        if t.watermark > 0 && Hashtbl.length t.resident >= max 8 t.watermark
        then reclaim t ~keep:key t.batch;
        let mfn = alloc_frame t in
        fill_frame t ~cr3 ~page_va ~mfn vma;
        Pt.map t.mem ~cr3_mfn:cr3 ~vaddr:page_va ~mfn
          ~writable:vma.vma_writable ~user:true
          ~alloc:(fun () -> Pm.alloc_page t.mem)
          ();
        Hashtbl.replace t.resident key mfn;
        Queue.push { fr_cr3 = cr3; fr_vaddr = page_va; fr_mfn = mfn } t.clock;
        Resolved
      end
    end

(* ---- 2M promotion and splitting ---- *)

(** Collapse the 2M-aligned region containing [vaddr] into one PS-set PDE.
    A fresh 2M-aligned block of 512 contiguous frames is allocated, every
    4K page's contents are migrated in (unpopulated demand pages are
    filled from their backing), and the old frames are recycled. Returns
    the 2M base frame, or None when no VMA fully covers the region. *)
let promote t ~cr3 ~vaddr =
  let base_va = Int64.logand vaddr (Int64.lognot (Int64.of_int Pt.huge_mask)) in
  let covered =
    match find_vma t ~cr3 ~vaddr:base_va with
    | Some v ->
      Int64.add base_va (Int64.of_int Pt.huge_size)
      <= Int64.add v.vma_start (Int64.of_int (v.vma_pages * Pm.page_size))
    | None -> false
  in
  if not covered then None
  else begin
    let vma = Option.get (find_vma t ~cr3 ~vaddr:base_va) in
    let block = Pm.alloc_pages t.mem ~align:Pt.huge_pages Pt.huge_pages in
    for i = 0 to Pt.huge_pages - 1 do
      let va = Int64.add base_va (Int64.of_int (i * Pm.page_size)) in
      let dst = Pm.paddr_of_mfn (block + i) in
      match Hashtbl.find_opt t.resident (cr3, va) with
      | Some mfn ->
        Pm.write_string t.mem dst
          (Pm.read_string t.mem (Pm.paddr_of_mfn mfn) Pm.page_size);
        Hashtbl.remove t.resident (cr3, va);
        t.free <- mfn :: t.free
      | None -> (
        match Pt.probe t.mem ~cr3_mfn:cr3 ~vaddr:va with
        | Some mfn ->
          (* eagerly-mapped page outside our resident set: migrate it *)
          Pm.write_string t.mem dst
            (Pm.read_string t.mem (Pm.paddr_of_mfn mfn) Pm.page_size)
        | None ->
          (* not populated yet: fill from swap/backing now *)
          (match Hashtbl.find_opt t.swap (cr3, va) with
          | Some contents ->
            Hashtbl.remove t.swap (cr3, va);
            Pm.write_string t.mem dst contents
          | None -> (
            match vma.vma_backing with
            | Zero -> ()
            | Image { bytes; base } ->
              let len = String.length bytes in
              for k = 0 to Pm.page_size - 1 do
                let off =
                  Int64.to_int (Int64.sub (Int64.add va (Int64.of_int k)) base)
                in
                if off >= 0 && off < len then
                  Pm.write8 t.mem (dst + k) (Char.code bytes.[off])
              done)))
    done;
    Pt.map t.mem ~cr3_mfn:cr3 ~vaddr:base_va ~mfn:block
      ~writable:vma.vma_writable ~user:true ~huge:true
      ~alloc:(fun () -> Pm.alloc_page t.mem)
      ();
    Stats.incr t.c_promotions;
    shootdown t ~cr3;
    Some block
  end

(** Replace the PS-set PDE covering [vaddr] with a table of 512 4K PTEs
    over the same contiguous frames (no copying). Returns true when a
    huge mapping was actually split. *)
let split t ~cr3 ~vaddr =
  match Pt.pde_of t.mem ~cr3_mfn:cr3 ~vaddr with
  | Some (pde_addr, pde)
    when Int64.logand pde Pt.pte_p <> 0L && Int64.logand pde Pt.pte_ps <> 0L ->
    let base_mfn = Pt.pte_mfn pde in
    let table = Pm.alloc_page t.mem in
    let flags =
      Int64.logand pde
        (Int64.logor
           (Int64.logor Pt.pte_w Pt.pte_u)
           (Int64.logor Pt.pte_a Pt.pte_d))
    in
    for i = 0 to Pt.huge_pages - 1 do
      let pte =
        Int64.logor
          (Int64.logor (Int64.of_int ((base_mfn + i) lsl Pm.page_shift)) Pt.pte_p)
          flags
      in
      Pm.write64 t.mem (Pm.paddr_of_mfn table + (8 * i)) pte
    done;
    Pm.write64 t.mem pde_addr
      (Int64.logor
         (Int64.of_int (table lsl Pm.page_shift))
         (Int64.logor Pt.pte_p
            (Int64.logor Pt.pte_w Pt.pte_u)));
    Stats.incr t.c_splits;
    shootdown t ~cr3;
    true
  | _ -> false
