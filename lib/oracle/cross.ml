(** Lockstep cross-check: the spec-driven oracle vs the sequential core.

    Runs [Seqcore] with [~max_bb_insns:1] so every [step_block] commits
    exactly one unit (one macro-instruction; each REP string iteration
    and its final exit test are separate units), steps the oracle by the
    same unit, and compares the full architectural state — GPRs, XMMs,
    st0, rip and the condition codes — after every commit. Memory over
    the given ranges is compared once at the end.

    Per-commit comparison (rather than final-state-only) is what lets
    the conformance property tests pin a flag-lattice assertion to the
    exact instruction under test, and what keeps a planted spec bug from
    being masked by a later flag write. *)

open Ptl_util
open Ptl_isa
open Ptl_arch
module Spec = Ptl_spec.Spec
module Uop = Ptl_uop.Uop

type result =
  | Agree of int  (* committed units compared *)
  | Diverged of { after : int; diffs : string list }
  | Unsupported of { after : int; what : string }  (* no spec row *)

let page = 4096

(** Mapped-address predicate matching the address space [Machine.create]
    builds: the code image's pages, [Machine.stack_pages] below
    [Machine.stack_top], and the default 64 heap pages at
    [Machine.heap_base]. *)
let valid_for_machine (image : Asm.image) =
  let base = image.Asm.img_base in
  let npages = (String.length image.Asm.code + page - 1) / page in
  let code_hi = Int64.add base (Int64.of_int (npages * page)) in
  let stack_lo =
    Int64.sub Machine.stack_top (Int64.of_int (Machine.stack_pages * page))
  in
  let heap_hi = Int64.add Machine.heap_base (Int64.of_int (64 * page)) in
  fun va ->
    (va >= base && va < code_hi)
    || (va >= stack_lo && va < Machine.stack_top)
    || (va >= Machine.heap_base && va < heap_hi)

(** Architectural differences between the oracle state and a machine
    context, formatted one per line ("oracle" vs "core"). *)
let state_diffs (st : Spec.state) (ctx : Context.t) =
  let ds = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  if st.Spec.rip <> ctx.Context.rip then
    add "rip: oracle %016Lx vs core %016Lx" st.Spec.rip ctx.Context.rip;
  let fo = st.Spec.flags land Flags.cc_mask
  and fc = ctx.Context.flags land Flags.cc_mask in
  if fo <> fc then
    add "flags: oracle %s vs core %s" (Flags.to_string fo) (Flags.to_string fc);
  for i = 0 to Regs.num_gprs - 1 do
    let a = st.Spec.regs.(i) and b = Context.gpr ctx i in
    if a <> b then add "%s: oracle %016Lx vs core %016Lx" (Regs.gpr_name i) a b
  done;
  for i = 0 to Regs.num_xmms - 1 do
    let b = Context.get_reg ctx (Uop.xmm i) in
    if st.Spec.xmms.(i) <> b then
      add "xmm%d: oracle %016Lx vs core %016Lx" i st.Spec.xmms.(i) b
  done;
  let b = Context.get_reg ctx Uop.reg_st0 in
  if st.Spec.st0 <> b then add "st0: oracle %016Lx vs core %016Lx" st.Spec.st0 b;
  List.rev !ds

(** Quadword-compare the given [(base, bytes)] ranges between the oracle
    memory and a machine. *)
let mem_diffs (st : Spec.state) (m : Machine.t) ranges =
  List.map
    (fun (va, a, b) ->
      Printf.sprintf "mem[%Lx]: oracle %016Lx vs core %016Lx" va a b)
    (Machine.quad_diffs ranges (Spec.read_mem st W64.B8) (Machine.quad_reader m))

(** Compare the oracle's final state against an arbitrary machine (used
    by the fuzz harness to break seq-vs-timed ties with the oracle's
    verdict). *)
let final_diffs ?(mem_ranges = []) (st : Spec.state) (m : Machine.t) =
  state_diffs st m.Machine.ctx @ mem_diffs st m mem_ranges

(** Run the oracle alone on [image] until it halts, faults or exhausts
    [max_insns], mirroring [Machine.create]'s initial register file.
    Combined with {!final_diffs} this gives the fuzz harness a third,
    independent verdict when the sequential and timed cores disagree. *)
let run_oracle ?(table = Spec.table) ?(max_insns = 200_000) (image : Asm.image) =
  let m = Machine.create image in
  let ctx = m.Machine.ctx in
  let o =
    Oracle.create ~table
      ~mode:
        (match ctx.Context.mode with
        | Context.User -> Spec.User
        | Context.Kernel -> Spec.Kernel)
      ~flags:ctx.Context.flags
      ~valid:(valid_for_machine image)
      ~rip:ctx.Context.rip image
  in
  let st = Oracle.state o in
  for i = 0 to Regs.num_gprs - 1 do
    st.Spec.regs.(i) <- Context.gpr ctx i
  done;
  ignore (Oracle.run ~max_insns o);
  st

(** Run [image] in lockstep on the sequential core and the oracle.
    [probe ~index ~before ~after] fires after every oracle unit with the
    0-based unit index and the oracle's flags on either side of it (the
    conformance property tests hang their lattice assertions on it).
    Memory over [mem_ranges] is compared at the end. *)
let check ?(table = Spec.table) ?(max_insns = 200_000) ?(mem_ranges = [])
    ?probe (image : Asm.image) : result =
  let m = Machine.create image in
  let ctx = m.Machine.ctx in
  let seq = Seqcore.create ~max_bb_insns:1 m.Machine.env ctx in
  let o =
    Oracle.create ~table
      ~mode:
        (match ctx.Context.mode with
        | Context.User -> Spec.User
        | Context.Kernel -> Spec.Kernel)
      ~flags:ctx.Context.flags
      ~valid:(valid_for_machine image)
      ~rip:ctx.Context.rip image
  in
  let st = Oracle.state o in
  (* Machine.create initializes rsp; mirror the full GPR file. *)
  for i = 0 to Regs.num_gprs - 1 do
    st.Spec.regs.(i) <- Context.gpr ctx i
  done;
  let res = ref None in
  let diverge diffs = Diverged { after = st.Spec.insns; diffs } in
  let finish () =
    match mem_diffs st m mem_ranges with
    | [] -> Agree st.Spec.insns
    | ds -> diverge ds
  in
  (* Step the oracle one unit; false stops the lockstep loop. *)
  let step_oracle () =
    let before = st.Spec.flags in
    let idx = st.Spec.insns in
    match Oracle.step o with
    | Oracle.Stepped ->
      (match probe with
      | Some p -> p ~index:idx ~before ~after:st.Spec.flags
      | None -> ());
      true
    | Oracle.Halted ->
      res := Some (diverge [ "core committed a unit but the oracle is halted" ]);
      false
    | Oracle.Faulted f ->
      res :=
        Some
          (diverge
             [ Printf.sprintf
                 "oracle predicts a fault (vector %d) the core did not take"
                 (Spec.fault_vector f) ]);
      false
    | Oracle.Undecodable rip ->
      res := Some (diverge [ Printf.sprintf "oracle cannot decode at %Lx" rip ]);
      false
    | Oracle.Unsupported k ->
      res := Some (Unsupported { after = st.Spec.insns; what = k });
      false
  in
  while !res = None do
    if st.Spec.insns >= max_insns then res := Some (finish ())
    else if not ctx.Context.running then
      if st.Spec.halted then res := Some (finish ())
      else res := Some (diverge [ "core halted but the oracle has not" ])
    else begin
      let before = ctx.Context.insns_committed in
      match Seqcore.step_block seq with
      | exception Assists.Triple_fault msg -> (
        (* No IDT: the core died on an unhandled fault. Consistent only
           if the oracle predicts a fault at the same instruction. *)
        match Oracle.step o with
        | Oracle.Faulted _ | Oracle.Undecodable _ -> res := Some (finish ())
        | _ ->
          res := Some (diverge [ "core took an unhandled fault: " ^ msg ]))
      | Seqcore.Interrupted -> ()
      | Seqcore.Idle ->
        if st.Spec.halted then res := Some (finish ())
        else res := Some (diverge [ "core idle but the oracle has not halted" ])
      | Seqcore.Executed _ ->
        let committed = ctx.Context.insns_committed - before in
        if committed = 0 then begin
          (* The macro faulted and delivery redirected into a handler.
             Lockstep stops here; consistent only if the oracle predicts
             a fault too (the conformance exception suite compares the
             delivered vector separately). *)
          match Oracle.step o with
          | Oracle.Faulted _ | Oracle.Undecodable _ -> res := Some (finish ())
          | _ ->
            res :=
              Some (diverge [ "core took a fault the oracle does not predict" ])
        end
        else
          let k = ref 0 in
          while !res = None && !k < committed do
            incr k;
            if step_oracle () && !k = committed then
              match state_diffs st ctx with
              | [] -> ()
              | ds -> res := Some (diverge ds)
          done
    end
  done;
  match !res with Some r -> r | None -> assert false
