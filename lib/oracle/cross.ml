(** Lockstep cross-check: the spec-driven oracle vs the sequential core.

    Runs [Seqcore] with [~max_bb_insns:1] so every [step_block] commits
    exactly one unit (one macro-instruction; each REP string iteration
    and its final exit test are separate units), steps the oracle by the
    same unit, and compares the full architectural state — GPRs, XMMs,
    st0, rip and the condition codes — after every commit. Memory over
    the given ranges is compared once at the end, page by page against
    the oracle's view of each range built in one go.

    The per-step body is a {!rider}: it observes one core step at a
    time, whoever takes it. {!check} builds its own machine and steps
    the core itself; the fuzz harness instead hangs a rider on the
    co-simulation's reference core ({!Ptl_hyper.Cosim.validate}'s
    [observe]), so the oracle needs no machine of its own.

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

(** Mapped addresses, as inclusive intervals, matching the address
    space [Machine.create] builds: the code image's pages,
    [Machine.stack_pages] below [Machine.stack_top], and
    [Machine.default_heap_pages] heap pages at [Machine.heap_base]. *)
let valid_for_machine (image : Asm.image) =
  let span lo pages = (lo, Int64.add lo (Int64.of_int ((pages * page) - 1))) in
  let code_pages = (String.length image.Asm.code + page - 1) / page in
  [
    span image.Asm.img_base code_pages;
    span
      (Int64.sub Machine.stack_top (Int64.of_int (Machine.stack_pages * page)))
      Machine.stack_pages;
    span Machine.heap_base Machine.default_heap_pages;
  ]

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
    memory and a machine, page by page: the oracle's view of each range
    is built once ({!Spec.read_range}). A range holding an unmapped byte
    is read quadword by quadword, so the fault is raised exactly where
    a per-quad compare would raise it. *)
let mem_diffs (st : Spec.state) (m : Machine.t) ranges =
  let quad = Spec.read_mem st W64.B8 in
  let oracle base len =
    match Spec.read_range st base len with
    | buf ->
      {
        Machine.slice = Some (fun va -> (buf, Int64.to_int (Int64.sub va base)));
        quad;
      }
    | exception Spec.Spec_fault _ -> { Machine.slice = None; quad }
  in
  List.map
    (fun (va, a, b) ->
      Printf.sprintf "mem[%Lx]: oracle %016Lx vs core %016Lx" va a b)
    (Machine.side_diffs ranges oracle (fun _ _ -> Machine.mem_side m))

(** Compare the oracle's final state against an arbitrary machine (used
    by the fuzz harness to break seq-vs-timed ties with the oracle's
    verdict). *)
let final_diffs ?(mem_ranges = []) (st : Spec.state) (m : Machine.t) =
  state_diffs st m.Machine.ctx @ mem_diffs st m mem_ranges

(* The oracle mirroring a fresh machine's VCPU: mode, flags, rip and
   the full GPR file ([Machine.create] initializes rsp). *)
let oracle_for ~table (m : Machine.t) =
  let ctx = m.Machine.ctx in
  let o =
    Oracle.create ~table
      ~mode:
        (match ctx.Context.mode with
        | Context.User -> Spec.User
        | Context.Kernel -> Spec.Kernel)
      ~flags:ctx.Context.flags
      ~mapped:(valid_for_machine m.Machine.image)
      ~rip:ctx.Context.rip m.Machine.image
  in
  let st = Oracle.state o in
  for i = 0 to Regs.num_gprs - 1 do
    st.Spec.regs.(i) <- Context.gpr ctx i
  done;
  o

(** Run the oracle alone on [image] until it halts, faults or exhausts
    [max_insns], mirroring [Machine.create]'s initial register file.
    Combined with {!final_diffs} this gives the fuzz harness a third,
    independent verdict when the sequential and timed cores disagree. *)
let run_oracle ?(table = Spec.table) ?(max_insns = 200_000) (image : Asm.image) =
  let o = oracle_for ~table (Machine.create image) in
  ignore (Oracle.run ~max_insns o);
  Oracle.state o

(** One lockstep pass: the oracle riding a sequential core that commits
    one unit per [step_block]. Whoever steps the core reports each step
    to {!observe}; the pass fixes its result at the first divergence or
    at its stopping point (the oracle reaching [max_insns], or the core
    halting), and ignores steps after that. *)
type rider = {
  m : Machine.t;
  seq : Seqcore.t;
  o : Oracle.t;
  st : Spec.state;
  max_insns : int;
  mem_ranges : (int64 * int) list;
  probe : (index:int -> before:int -> after:int -> unit) option;
  (* the core's committed count after the last observed step *)
  mutable seen : int;
  mutable res : result option;
}

let diverge r diffs = r.res <- Some (Diverged { after = r.st.Spec.insns; diffs })

(* The final memory compare. *)
let finish r =
  match mem_diffs r.st r.m r.mem_ranges with
  | [] -> r.res <- Some (Agree r.st.Spec.insns)
  | ds -> diverge r ds

(* The stopping checks made before every step. *)
let settle r =
  if r.res = None then
    if r.st.Spec.insns >= r.max_insns then finish r
    else if not r.m.Machine.ctx.Context.running then
      if r.st.Spec.halted then finish r
      else diverge r [ "core halted but the oracle has not" ]

(** Start a lockstep pass over [m], a fresh machine, and [seq], a core
    on it built with [~max_bb_insns:1]. Arguments as {!check}. *)
let ride ?(table = Spec.table) ?(max_insns = 200_000) ?(mem_ranges = [])
    ?probe (m : Machine.t) seq =
  let o = oracle_for ~table m in
  let r =
    {
      m;
      seq;
      o;
      st = Oracle.state o;
      max_insns;
      mem_ranges;
      probe;
      seen = m.Machine.ctx.Context.insns_committed;
      res = None;
    }
  in
  settle r;
  r

(* Step the oracle one unit; false stops the lockstep loop. *)
let step_oracle r =
  let st = r.st in
  let before = st.Spec.flags in
  let idx = st.Spec.insns in
  match Oracle.step r.o with
  | Oracle.Stepped ->
    (match r.probe with
    | Some p -> p ~index:idx ~before ~after:st.Spec.flags
    | None -> ());
    true
  | Oracle.Halted ->
    diverge r [ "core committed a unit but the oracle is halted" ];
    false
  | Oracle.Faulted f ->
    diverge r
      [ Printf.sprintf "oracle predicts a fault (vector %d) the core did not take"
          (Spec.fault_vector f) ];
    false
  | Oracle.Undecodable rip ->
    diverge r [ Printf.sprintf "oracle cannot decode at %Lx" rip ];
    false
  | Oracle.Unsupported k ->
    r.res <- Some (Unsupported { after = st.Spec.insns; what = k });
    false

(* One step of the core, [Error msg] when it died on an unhandled fault
   ([Assists.Triple_fault]: no IDT). *)
let observe_step r (step : (Seqcore.status, string) Stdlib.result) =
  if r.res = None then begin
    let ctx = r.m.Machine.ctx in
    let committed = ctx.Context.insns_committed - r.seen in
    r.seen <- ctx.Context.insns_committed;
    (match step with
    | Error msg -> (
      (* Consistent only if the oracle predicts a fault at the same
         instruction. *)
      match Oracle.step r.o with
      | Oracle.Faulted _ | Oracle.Undecodable _ -> finish r
      | _ -> diverge r [ "core took an unhandled fault: " ^ msg ])
    | Ok Seqcore.Interrupted -> ()
    | Ok Seqcore.Idle ->
      if r.st.Spec.halted then finish r
      else diverge r [ "core idle but the oracle has not halted" ]
    | Ok (Seqcore.Executed _) when committed = 0 -> (
      (* The macro faulted and delivery redirected into a handler.
         Lockstep stops here; consistent only if the oracle predicts a
         fault too (the conformance exception suite compares the
         delivered vector separately). *)
      match Oracle.step r.o with
      | Oracle.Faulted _ | Oracle.Undecodable _ -> finish r
      | _ -> diverge r [ "core took a fault the oracle does not predict" ])
    | Ok (Seqcore.Executed _) ->
      let k = ref 0 in
      while r.res = None && !k < committed do
        incr k;
        if step_oracle r && !k = committed then
          match state_diffs r.st ctx with [] -> () | ds -> diverge r ds
      done);
    settle r
  end

(** Report one [Seqcore.step_block] of the pass's core that returned. *)
let observe r status = observe_step r (Ok status)

(** Step the pass's core until the pass has its result. *)
let finish_ride r =
  while r.res = None do
    observe_step r
      (match Seqcore.step_block r.seq with
      | s -> Ok s
      | exception Assists.Triple_fault msg -> Error msg)
  done;
  match r.res with Some res -> res | None -> assert false

(** Run [image] in lockstep on the sequential core and the oracle.
    [probe ~index ~before ~after] fires after every oracle unit with the
    0-based unit index and the oracle's flags on either side of it (the
    conformance property tests hang their lattice assertions on it).
    Memory over [mem_ranges] is compared at the end. *)
let check ?table ?max_insns ?mem_ranges ?probe (image : Asm.image) : result =
  let m = Machine.create image in
  let seq = Seqcore.create ~max_bb_insns:1 m.Machine.env m.Machine.ctx in
  finish_ride (ride ?table ?max_insns ?mem_ranges ?probe m seq)
