(** Functional virtual-memory access for microcode and the sequential core.

    Translates through the page tables (the timing models own their TLBs),
    performs the permission checks of §2.1 and raises precise
    {!Fault.Guest_fault}s. Unaligned accesses that straddle a page
    boundary translate both pages, exactly the case the paper calls out as
    requiring special handling.

    Each environment keeps an exact translation memo: a direct-mapped
    table keyed by (virtual page, cr3, write, user, exec). Only a
    successful walk fills a slot, and that walk has already set the
    accessed bit on every level and, for a write, the dirty bit on the
    leaf — so while none of the page-table entries it read change, a
    repeat walk would return the same frame and write nothing. The frames
    holding those entries are {!Ptl_mem.Phys_mem.watch}ed; a write to one
    (or a restore) advances the memory's page-table epoch, and a memo
    taken at an older epoch is dropped whole before its next use. Faults
    are never memoized, so the fault path and [cr2] are the walk's own. *)

open Ptl_util
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable

(* 256 slots keep each memo array in the minor heap, which matters for
   the many short-lived environments of fuzzing and replay *)
let memo_slots = 256

type env = {
  mem : Pm.t;
  (* slot i maps virtual page [memo_vpn.(i)] under the access tag
     [memo_tag.(i)] (cr3 and the access bits, -1 = empty) to the frame
     at physical address [memo_page.(i)] *)
  memo_vpn : int array;
  memo_tag : int array;
  memo_page : int array;
  (* the memory's page-table epoch the slots were filled at *)
  mutable memo_epoch : int;
}

let create mem =
  {
    mem;
    memo_vpn = Array.make memo_slots 0;
    memo_tag = Array.make memo_slots (-1);
    memo_page = Array.make memo_slots 0;
    memo_epoch = Pm.pt_epoch mem;
  }

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
  let cr3 = ctx.Context.cr3 in
  (* arithmetic shift: distinct pages, canonical or not, stay distinct *)
  let vpn = Int64.to_int (Int64.shift_right vaddr Pm.page_shift) in
  let tag =
    (cr3 lsl 3)
    lor (if write then 1 else 0)
    lor (if user then 2 else 0)
    lor if fetch then 4 else 0
  in
  (* [vpn lsr 9] folds in the page-directory index, so pages with equal
     low index bits in different 2M regions take different slots *)
  let slot = (vpn lxor (vpn lsr 9) lxor (tag * 0x9E5)) land (memo_slots - 1) in
  if env.memo_epoch <> Pm.pt_epoch env.mem then begin
    Array.fill env.memo_tag 0 memo_slots (-1);
    env.memo_epoch <- Pm.pt_epoch env.mem
  end;
  if env.memo_tag.(slot) = tag && env.memo_vpn.(slot) = vpn then
    env.memo_page.(slot) lor (Int64.to_int vaddr land Pm.page_mask)
  else
    match Pt.walk env.mem ~cr3_mfn:cr3 ~vaddr ~write ~user ~exec:fetch () with
    | Ok tr ->
      List.iter (fun pa -> Pm.watch env.mem (Pm.mfn_of_paddr pa)) tr.Pt.pte_addrs;
      (* the walk's own A/D updates may have advanced the epoch; they
         only set bits, so no other slot went stale *)
      env.memo_epoch <- Pm.pt_epoch env.mem;
      env.memo_vpn.(slot) <- vpn;
      env.memo_tag.(slot) <- tag;
      env.memo_page.(slot) <- Pm.paddr_of_mfn tr.Pt.mfn;
      Pt.to_paddr tr vaddr
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

(** Sized virtual write; returns the physical address of its first byte
    (what a committing core checks for self-modifying code). *)
let store env ctx ~vaddr ~size ~value ~at_rip =
  let n = W64.bytes_of_size size in
  let paddr = translate env ctx ~vaddr ~write:true ~fetch:false ~at_rip in
  if not (crosses_page vaddr n) then Pm.write_sized env.mem paddr size value
  else begin
    Pm.write8 env.mem paddr (W64.byte value 0);
    for i = 1 to n - 1 do
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:true ~fetch:false ~at_rip in
      Pm.write8 env.mem pa (W64.byte value i)
    done
  end;
  paddr

(** Sized virtual write. *)
let write env ctx ~vaddr ~size ~value ~at_rip =
  ignore (store env ctx ~vaddr ~size ~value ~at_rip : int)

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
