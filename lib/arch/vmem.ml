(** Functional virtual-memory access for microcode and the sequential core.

    Translates through the page tables directly (no TLB — the timing
    models own their TLBs), performs the permission checks of §2.1 and
    raises precise {!Fault.Guest_fault}s. Unaligned accesses that straddle
    a page boundary translate both pages, exactly the case the paper calls
    out as requiring special handling. *)

open Ptl_util
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable

type env = { mem : Pm.t }

let page_fault (ctx : Context.t) ~vaddr ~not_present ~write ~fetch ~at_rip =
  ctx.Context.cr2 <- vaddr;
  Fault.raise_fault
    (Fault.Page_fault
       { vaddr; not_present; write; user = ctx.Context.mode = Context.User; fetch })
    ~at_rip

(** Translate [vaddr] for the access described; returns the physical
    address. Sets accessed/dirty bits like hardware. *)
let translate env (ctx : Context.t) ~vaddr ~write ~fetch ~at_rip =
  let user = ctx.Context.mode = Context.User in
  match
    Pt.walk env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write ~user ~exec:fetch ()
  with
  | Ok tr -> Pt.to_paddr tr vaddr
  | Error f ->
    page_fault ctx ~vaddr ~not_present:f.Pt.not_present ~write ~fetch ~at_rip

(* Split an access crossing a page boundary into per-page pieces. *)
let crosses_page vaddr n =
  let off = Int64.to_int (Int64.logand vaddr (Int64.of_int Pm.page_mask)) in
  off + n > Pm.page_size

(** Sized virtual read. *)
let read env ctx ~vaddr ~size ~at_rip =
  let n = W64.bytes_of_size size in
  if not (crosses_page vaddr n) then
    let paddr = translate env ctx ~vaddr ~write:false ~fetch:false ~at_rip in
    Pm.read_sized env.mem paddr size
  else
    (* straddling access: translate byte by byte (slow path, rare) *)
    W64.of_bytes n (fun i ->
        let va = Int64.add vaddr (Int64.of_int i) in
        let pa = translate env ctx ~vaddr:va ~write:false ~fetch:false ~at_rip in
        Pm.read8 env.mem pa)

(** Sized virtual write. *)
let write env ctx ~vaddr ~size ~value ~at_rip =
  let n = W64.bytes_of_size size in
  if not (crosses_page vaddr n) then begin
    let paddr = translate env ctx ~vaddr ~write:true ~fetch:false ~at_rip in
    Pm.write_sized env.mem paddr size value
  end
  else
    for i = 0 to n - 1 do
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:true ~fetch:false ~at_rip in
      Pm.write8 env.mem pa (W64.byte value i)
    done

(** Instruction byte fetch (for the decoder). *)
let fetch_byte env ctx ~at_rip vaddr =
  let paddr = translate env ctx ~vaddr ~write:false ~fetch:true ~at_rip in
  Pm.read8 env.mem paddr

(** MFN backing a code address (for basic-block-cache keys). *)
let code_mfn env ctx ~at_rip vaddr =
  let paddr = translate env ctx ~vaddr ~write:false ~fetch:true ~at_rip in
  Pm.mfn_of_paddr paddr

(** Read [n] bytes from guest virtual memory as a string. *)
let read_string env ctx ~vaddr n ~at_rip =
  String.init n (fun i ->
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:false ~fetch:false ~at_rip in
      Char.chr (Pm.read8 env.mem pa))
