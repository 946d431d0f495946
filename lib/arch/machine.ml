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
let default_heap_pages = 64

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

(** Copy [bytes] into guest memory at [vaddr], mapping pages as needed.
    Each page slice is written with one frame copy, which dirties the
    frame once. *)
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
  (* one probe and one copy per page slice *)
  let len = String.length bytes in
  let pos = ref 0 in
  while !pos < len do
    let va = Int64.add vaddr (Int64.of_int !pos) in
    let off = Int64.to_int va land Pm.page_mask in
    let n = min (len - !pos) (Pm.page_size - off) in
    (match Pt.probe mem ~cr3_mfn:ctx.Context.cr3 ~vaddr:va with
    | Some mfn -> Pm.blit_string mem bytes !pos (Pm.paddr_of_mfn mfn + off) n
    | None -> assert false);
    pos := !pos + n
  done

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
let create ?stats ?(mode = Context.Kernel) ?entry ?(heap_pages = default_heap_pages)
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

(** One side of a page-wise memory compare, built per compared range.
    [slice va], for a quadword-aligned offset into the range, returns
    bytes holding the memory from [va] to the end of its page (or of the
    range) and the index of [va] in them; [None] compares the range
    quadword by quadword instead. [quad va] reads one quadword, for
    quadwords straddling a page boundary. *)
type mem_side = {
  slice : (int64 -> Bytes.t * int) option;
  quad : int64 -> int64;
}

(** A machine's side: each page is translated once per compare (a read
    walk, setting accessed bits as {!read_mem} does) and its frame read
    in place. *)
let mem_side t =
  {
    slice =
      Some
        (fun vaddr ->
          let pa =
            Vmem.translate t.env.Env.vmem t.ctx ~vaddr ~write:false ~fetch:false
              ~at_rip:0L
          in
          (Pm.frame_ro t.env.Env.mem (Pm.mfn_of_paddr pa), pa land Pm.page_mask));
    quad = (fun vaddr -> read_mem t ~vaddr ~size:Ptl_util.W64.B8);
  }

let rec same_quads a ia b ib n =
  n = 0
  || (Bytes.get_int64_le a ia = Bytes.get_int64_le b ib
     && same_quads a (ia + 8) b (ib + 8) (n - 1))

(** The first 8 quadwords over [ranges] ((vaddr, bytes) pairs) at which
    two memories differ, as (vaddr, a, b) in range order; [a base bytes]
    and [b base bytes] give each side of one range. Within a page the
    sides are compared as byte runs and only a differing run is split
    into quadwords; reading stops at the eighth difference, so the list
    and the pages read match {!quad_diffs} over per-quad readers. *)
let side_diffs ranges a b =
  let limit = 8 in
  let out = ref [] and count = ref 0 in
  let note va x y =
    if x <> y then begin
      incr count;
      out := (va, x, y) :: !out
    end
  in
  List.iter
    (fun (base, bytes) ->
      let nq = bytes / 8 in
      if !count < limit && nq > 0 then begin
        let sa = a base (nq * 8) and sb = b base (nq * 8) in
        let by_quad va =
          let x = sa.quad va in
          let y = sb.quad va in
          note va x y
        in
        let i = ref 0 in
        while !i < nq && !count < limit do
          let va = Int64.add base (Int64.of_int (!i * 8)) in
          let off = Int64.to_int va land Pm.page_mask in
          if off > Pm.page_size - 8 then begin
            by_quad va;
            incr i
          end
          else begin
            (* the quadwords from [va] to the end of its page *)
            let run = min (nq - !i) ((Pm.page_size - off) / 8) in
            (match (sa.slice, sb.slice) with
            | Some fa, Some fb ->
              let ba, ia = fa va in
              let bb, ib = fb va in
              if not (same_quads ba ia bb ib run) then
                for j = 0 to run - 1 do
                  if !count < limit then
                    note
                      (Int64.add va (Int64.of_int (j * 8)))
                      (Bytes.get_int64_le ba (ia + (j * 8)))
                      (Bytes.get_int64_le bb (ib + (j * 8)))
                done
            | _ ->
              for j = 0 to run - 1 do
                if !count < limit then by_quad (Int64.add va (Int64.of_int (j * 8)))
              done);
            i := !i + run
          end
        done
      end)
    ranges;
  List.rev !out

(** {!side_diffs} between two machines. *)
let mem_diffs ranges a b =
  side_diffs ranges (fun _ _ -> mem_side a) (fun _ _ -> mem_side b)

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
    Reading stops at the eighth difference. The per-quad reference for
    {!side_diffs}. *)
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
