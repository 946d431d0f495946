(** The basic block cache: pre-decoded uop sequences keyed by far more than
    the RIP.

    As the paper stresses (§2.1), in a full-system simulator translated
    code must be identified by its virtual address *and* the physical page
    (MFN) it starts on, plus context bits such as kernel/user mode, because
    different address spaces may map different code at the same RIP. The
    cache also handles self-modifying code: every MFN with cached blocks is
    registered, and a committed store to such a page invalidates all blocks
    decoded from it (the core then flushes its pipeline).

    The basic block cache does not change the architecturally visible
    behaviour of the machine; it exists to make simulation fast — the
    `ablate-bbcache` bench measures exactly that claim. *)

module Stats = Ptl_stats.Statstree

type key = { krip : int64; kmfn : int; kkernel : bool }

(* Every fetch-block lookup probes [Blocks] and every committed store
   probes [Frames], so both hash and compare keys without the
   polymorphic [caml_hash] and [compare]. Nothing iterates either, so
   bucket order cannot reach a result. *)
module Blocks = Hashtbl.Make (struct
  type t = key

  let equal a b =
    Int64.equal a.krip b.krip && a.kmfn = b.kmfn && Bool.equal a.kkernel b.kkernel

  let hash k =
    let h =
      (Int64.to_int k.krip * 0x2545F4914F6CDD1D)
      + (k.kmfn * 0x9E3779B1)
      + if k.kkernel then 1 else 0
    in
    h lxor (h lsr 32)
end)

module Frames = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash mfn = mfn land max_int
end)

type bb = {
  key : key;
  uops : Uop.t array;
  insn_count : int;
  byte_len : int;
  (* every MFN any instruction byte of the block touches *)
  mfns : int list;
  (* where fetch continues if the block ends without a taken branch *)
  fallthrough_rip : int64;
  (* whether the block ends in a branch/assist (vs a size limit cut) *)
  terminated : bool;
}

type t = {
  blocks : bb Blocks.t;
  by_mfn : key list ref Frames.t;
  max_insns : int;
  max_uops : int;
  hits : Stats.counter;
  misses : Stats.counter;
  invalidations : Stats.counter;
  smc_flushes : Stats.counter;
}

let create ?(max_insns = 16) ?(max_uops = 48) stats =
  {
    blocks = Blocks.create 4096;
    by_mfn = Frames.create 1024;
    max_insns;
    max_uops;
    hits = Stats.counter stats "bbcache.hits";
    misses = Stats.counter stats "bbcache.misses";
    invalidations = Stats.counter stats "bbcache.invalidations";
    smc_flushes = Stats.counter stats "bbcache.smc_flushes";
  }

let register_mfn t mfn key =
  match Frames.find_opt t.by_mfn mfn with
  | Some l -> l := key :: !l
  | None -> Frames.add t.by_mfn mfn (ref [ key ])

(** Translate a basic block starting at [rip]. [fetch] returns instruction
    bytes by virtual address (raising the caller's fault exception on
    translation failure); [mfn_of] maps a virtual address to the physical
    frame it lives on (used both for the cache key and SMC tracking). *)
let build t ~rip ~kernel ~fetch ~mfn_of =
  let key = { krip = rip; kmfn = mfn_of rip; kkernel = kernel } in
  let uops = ref [] in
  let nuops = ref 0 in
  let ninsns = ref 0 in
  let mfns = ref [ key.kmfn ] in
  let pos = ref rip in
  let terminated = ref false in
  (try
     let continue_ = ref true in
     while !continue_ do
       let insn, len = Ptl_isa.Decode.decode ~fetch ~rip:!pos in
       let next_rip = Int64.add !pos (Int64.of_int len) in
       let translated =
         try Microcode.translate insn ~rip:!pos ~next_rip
         with Microcode.Unimplemented _ -> raise (Ptl_isa.Decode.Invalid_opcode !pos)
       in
       (* Would this instruction overflow the block? Cut before it. *)
       if !ninsns > 0
          && (!ninsns + 1 > t.max_insns || !nuops + Array.length translated > t.max_uops)
       then continue_ := false
       else begin
         Array.iter (fun u -> uops := u :: !uops) translated;
         nuops := !nuops + Array.length translated;
         incr ninsns;
         (* record page(s) the instruction bytes occupy *)
         let last_byte = Int64.sub next_rip 1L in
         let m1 = mfn_of !pos and m2 = mfn_of last_byte in
         if not (List.mem m1 !mfns) then mfns := m1 :: !mfns;
         if not (List.mem m2 !mfns) then mfns := m2 :: !mfns;
         pos := next_rip;
         if Array.exists Uop.ends_block translated then begin
           terminated := true;
           continue_ := false
         end
       end
     done
   with exn ->
     (* Faults decoding the *first* instruction belong to the consumer
        (instruction fetch fault); mid-block faults just cut the block so
        the fault is taken when fetch actually reaches that instruction. *)
     if !ninsns = 0 then raise exn);
  let bb =
    {
      key;
      uops = Array.of_list (List.rev !uops);
      insn_count = !ninsns;
      byte_len = Int64.to_int (Int64.sub !pos rip);
      mfns = !mfns;
      fallthrough_rip = !pos;
      terminated = !terminated;
    }
  in
  Blocks.replace t.blocks key bb;
  List.iter (fun m -> register_mfn t m key) bb.mfns;
  bb

(** Look up (or decode and cache) the block at [rip]. *)
let lookup t ~rip ~kernel ~fetch ~mfn_of =
  let key = { krip = rip; kmfn = mfn_of rip; kkernel = kernel } in
  match Blocks.find_opt t.blocks key with
  | Some bb ->
    Stats.incr t.hits;
    if !Ptl_trace.Trace.on then Ptl_trace.Trace.emit ~rip Ptl_trace.Trace.Bb_hit;
    bb
  | None ->
    Stats.incr t.misses;
    if !Ptl_trace.Trace.on then Ptl_trace.Trace.emit ~rip Ptl_trace.Trace.Bb_miss;
    build t ~rip ~kernel ~fetch ~mfn_of

(** Invalidate every block decoded from [mfn]; returns how many died. *)
let invalidate_mfn t mfn =
  match Frames.find_opt t.by_mfn mfn with
  | None -> 0
  | Some keys ->
    let n = ref 0 in
    List.iter
      (fun key ->
        if Blocks.mem t.blocks key then begin
          Blocks.remove t.blocks key;
          incr n
        end)
      !keys;
    Frames.remove t.by_mfn mfn;
    Stats.add t.invalidations !n;
    !n

(** Does [mfn] back any cached code? (Cheap check for the store-commit
    path: only stores touching code pages trigger SMC handling.) *)
let mfn_has_code t mfn = Frames.mem t.by_mfn mfn

(** A committed store hit [mfn]. If code was cached from that page, all of
    it is invalidated and the caller must flush its pipeline (returns
    true). This is the self-modifying-code protocol of §2.1. *)
let store_committed t mfn =
  if mfn_has_code t mfn then begin
    ignore (invalidate_mfn t mfn);
    Stats.incr t.smc_flushes;
    if !Ptl_trace.Trace.on then
      Ptl_trace.Trace.emit ~info:(Int64.of_int mfn) ~tag:"smc"
        Ptl_trace.Trace.Flush;
    true
  end
  else false

let clear t =
  Blocks.reset t.blocks;
  Frames.reset t.by_mfn
