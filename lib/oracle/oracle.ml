(** The conformance oracle: an independent reference interpreter driven
    directly by the declarative spec table ([lib/spec]).

    The oracle deliberately shares no execution code with the simulator
    cores: no microcode expansion, no uop execution, no [W64] arithmetic.
    It decodes a macro-instruction (the decoder *is* shared — the spec
    covers semantics, not encodings), looks up the spec row by mnemonic,
    and runs the row's [sem] function over a private [Spec.state].

    Stepping granularity matches the sequential core's committed-unit
    count ([Seqcore.create ~max_bb_insns:1]): one [step] per committed
    macro-instruction, with each REP string iteration (and the final
    exit test) its own step, so lockstep comparison is possible. *)

open Ptl_isa
module Spec = Ptl_spec.Spec

type t = {
  st : Spec.state;
  table : Spec.table;
}

(** Result of stepping the oracle by one committed unit. *)
type outcome =
  | Stepped  (* one unit committed; state advanced *)
  | Halted  (* already halted before the step *)
  | Faulted of Spec.fault  (* predicted architectural fault; state rolled back *)
  | Undecodable of int64  (* decoder rejected the bytes (#UD) *)
  | Unsupported of string  (* decoded fine but no spec row covers it *)

let state t = t.st

(** Build an oracle over an assembled image. [mapped] lists the mapped
    addresses as inclusive intervals (see [Cross.valid_for_machine] for
    the intervals of [Machine.create]'s address space). Freshly mapped
    pages read as zero, so only the code image has contents. *)
let create ?(table = Spec.table) ?(mode = Spec.Kernel) ?(flags = 0) ~mapped
    ~rip (image : Asm.image) =
  {
    st =
      Spec.make_state ~rip ~flags ~mode ~image_base:image.Asm.img_base
        ~image:image.Asm.code ~mapped ();
    table;
  }

let rollback st regs xmms st0 flags =
  Array.blit regs 0 st.Spec.regs 0 (Array.length regs);
  Array.blit xmms 0 st.Spec.xmms 0 (Array.length xmms);
  st.Spec.st0 <- st0;
  st.Spec.flags <- flags;
  Spec.discard_journal st

(** Execute one committed unit. On a predicted fault the architectural
    state is rolled back to the instruction boundary (registers, flags
    and journaled memory writes), mirroring the sequential core's
    buffered macro commit, and [rip] is left at the faulting
    instruction. *)
let step t : outcome =
  let st = t.st in
  if st.Spec.halted then Halted
  else
    let fetch va = Spec.read_byte st va in
    match Decode.decode ~fetch ~rip:st.Spec.rip with
    | exception Decode.Invalid_opcode rip -> Undecodable rip
    | exception Spec.Spec_fault f -> Faulted f
    | insn, ilen -> (
        let next_rip = Int64.add st.Spec.rip (Int64.of_int ilen) in
        let key = Spec.key_of_insn insn in
        match Spec.find t.table key with
        | None -> Unsupported key
        | Some row -> (
            let regs = Array.copy st.Spec.regs in
            let xmms = Array.copy st.Spec.xmms in
            let st0 = st.Spec.st0 and flags = st.Spec.flags in
            match row.Spec.sem st insn ~next_rip with
            | exception Spec.Spec_fault f ->
                rollback st regs xmms st0 flags;
                Faulted f
            | exception Spec.Unsupported_insn k ->
                rollback st regs xmms st0 flags;
                Unsupported k
            | stp ->
                Spec.commit_journal st;
                st.Spec.insns <- st.Spec.insns + 1;
                (match stp with
                | Spec.Next -> st.Spec.rip <- next_rip
                | Spec.Jump target -> st.Spec.rip <- target
                | Spec.Repeat -> ()  (* another unit at the same rip *)
                | Spec.Halt_step -> st.Spec.rip <- next_rip);
                Stepped))

(** Run until halt, fault or [max_insns] committed units. Returns the
    last outcome ([Stepped] means the budget ran out first). *)
let run ?(max_insns = 1_000_000) t : outcome =
  let rec go last =
    if t.st.Spec.insns >= max_insns then last
    else
      match step t with
      | Stepped -> go Stepped
      | Halted -> Halted
      | (Faulted _ | Undecodable _ | Unsupported _) as stop -> stop
  in
  go Stepped
