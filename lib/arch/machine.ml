(** Bare-machine builder: a minimal single-VCPU address space for running
    standalone guest programs (tests, examples and microbenchmarks) without
    the full minios kernel. Allocates a page table tree, maps the assembled
    image, a stack and an optional heap, and returns a ready context.

    Real full-system runs go through {!Ptl_kernel} / {!Ptl_hyper}; this is
    the "userspace PTLsim" equivalent. *)

module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Asm = Ptl_isa.Asm

type t = {
  env : Env.t;
  ctx : Context.t;
  image : Asm.image;
}

let stack_top = 0x7FFF_F000L
let stack_pages = 16
let heap_base = 0x6000_0000L

(** Map [npages] fresh frames at [vaddr] (page-aligned). *)
let map_pages env (ctx : Context.t) ~vaddr ~npages ~writable ~user =
  let mem = env.Env.mem in
  for i = 0 to npages - 1 do
    let va = Int64.add vaddr (Int64.of_int (i * Pm.page_size)) in
    let mfn = Pm.alloc_page mem in
    Pt.map mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va ~mfn ~writable ~user
      ~alloc:(fun () -> Pm.alloc_page mem)
      ()
  done

(** Copy [bytes] into guest memory at [vaddr], mapping pages as needed. *)
let load_blob env (ctx : Context.t) ~vaddr ~bytes ~writable ~user =
  let mem = env.Env.mem in
  let base = Int64.logand vaddr (Int64.lognot (Int64.of_int Pm.page_mask)) in
  let last = Int64.add vaddr (Int64.of_int (max 0 (String.length bytes - 1))) in
  let npages =
    Int64.to_int (Int64.div (Int64.sub last base) (Int64.of_int Pm.page_size)) + 1
  in
  for i = 0 to npages - 1 do
    let va = Int64.add base (Int64.of_int (i * Pm.page_size)) in
    if Pt.probe mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va = None then begin
      let mfn = Pm.alloc_page mem in
      Pt.map mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va ~mfn ~writable ~user
        ~alloc:(fun () -> Pm.alloc_page mem)
        ()
    end
  done;
  String.iteri
    (fun i c ->
      let va = Int64.add vaddr (Int64.of_int i) in
      match Pt.probe mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va with
      | Some mfn ->
        Pm.write8 mem
          (Pm.paddr_of_mfn mfn + Int64.to_int (Int64.logand va (Int64.of_int Pm.page_mask)))
          (Char.code c)
      | None -> assert false)
    bytes

(** Map the heap with 2 MiB PS PDEs instead of 4 KiB PTEs: each chunk gets
    a contiguous, 512-aligned frame block so the PDE's base mfn covers the
    whole region. [npages] is rounded up to a whole number of huge pages. *)
let map_huge_heap env (ctx : Context.t) ~npages =
  let mem = env.Env.mem in
  let chunks = (npages + Pt.huge_pages - 1) / Pt.huge_pages in
  for i = 0 to chunks - 1 do
    let va = Int64.add heap_base (Int64.of_int (i * Pt.huge_size)) in
    let mfn = Pm.alloc_pages mem ~align:Pt.huge_pages Pt.huge_pages in
    Pt.map mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va ~mfn ~writable:true
      ~user:true ~huge:true
      ~alloc:(fun () -> Pm.alloc_page mem)
      ()
  done

(** Build a machine around an assembled image. Execution starts at the
    [entry] symbol (default: the image base) in the given [mode] (default
    kernel, so privileged instructions work in standalone programs).
    [huge_heap] backs the heap with 2 MiB pages (TLB-friendly variant of
    the same address space). *)
let create ?stats ?(mode = Context.Kernel) ?entry ?(heap_pages = 64)
    ?(huge_heap = false) image =
  let env = Env.create ?stats () in
  let ctx = Context.create ~vcpu_id:0 in
  ctx.Context.cr3 <- Pm.alloc_page env.Env.mem;
  (* code (writable so SMC tests can patch it; real kernels map RX) *)
  load_blob env ctx ~vaddr:image.Asm.img_base ~bytes:image.Asm.code ~writable:true
    ~user:true;
  (* stack *)
  map_pages env ctx
    ~vaddr:(Int64.sub stack_top (Int64.of_int (stack_pages * Pm.page_size)))
    ~npages:stack_pages ~writable:true ~user:true;
  (* heap *)
  if heap_pages > 0 then
    if huge_heap then map_huge_heap env ctx ~npages:heap_pages
    else map_pages env ctx ~vaddr:heap_base ~npages:heap_pages ~writable:true ~user:true;
  Context.set_gpr ctx Ptl_isa.Regs.rsp stack_top;
  ctx.Context.mode <- mode;
  ctx.Context.rip <-
    (match entry with
    | Some sym -> Asm.symbol image sym
    | None -> image.Asm.img_base);
  { env; ctx; image }

(** Read guest virtual memory (for assertions). *)
let read_mem t ~vaddr ~size =
  Vmem.read t.env.Env.vmem t.ctx ~vaddr ~size ~at_rip:0L

(** A quadword reader for comparing memory images: each page is
    translated once (a read walk, setting accessed bits as {!read_mem}
    does) and then read physically; a quadword straddling two pages goes
    through {!read_mem}. *)
let quad_reader t =
  let page = ref (-1L) and base = ref 0 in
  fun vaddr ->
    let off = Int64.to_int vaddr land Pm.page_mask in
    if off > Pm.page_size - 8 then read_mem t ~vaddr ~size:Ptl_util.W64.B8
    else begin
      let va_page = Int64.sub vaddr (Int64.of_int off) in
      if va_page <> !page then begin
        page := va_page;
        base :=
          Vmem.translate t.env.Env.vmem t.ctx ~vaddr ~write:false ~fetch:false
            ~at_rip:0L
          - off
      end;
      Pm.read_sized t.env.Env.mem (!base + off) Ptl_util.W64.B8
    end

(** The first 8 quadwords over [ranges] ((vaddr, bytes) pairs) at which
    the readers [a] and [b] differ, as (vaddr, a, b) in range order.
    Reading stops at the eighth difference. *)
let quad_diffs ranges a b =
  let limit = 8 in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (base, bytes) ->
      for i = 0 to (bytes / 8) - 1 do
        if !count < limit then begin
          let va = Int64.add base (Int64.of_int (i * 8)) in
          let x = a va in
          let y = b va in
          if x <> y then begin
            incr count;
            out := (va, x, y) :: !out
          end
        end
      done)
    ranges;
  List.rev !out

let write_mem t ~vaddr ~size ~value =
  Vmem.write t.env.Env.vmem t.ctx ~vaddr ~size ~value ~at_rip:0L

let gpr t r = Context.gpr t.ctx r

(** Convenience: build, then run on a fresh sequential core until [hlt]
    (the VCPU goes idle) or [max_insns]. Returns the seqcore. *)
let run_seq ?(max_insns = 1_000_000) t =
  let seq = Seqcore.create t.env t.ctx in
  ignore (Seqcore.run seq ~max_insns);
  seq
