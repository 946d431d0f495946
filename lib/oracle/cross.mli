(** Lockstep cross-check of the spec-driven oracle against the
    sequential core: one committed unit at a time (each REP iteration
    is a unit), comparing GPRs, XMMs, st0, rip and the condition codes
    after every commit and the given memory ranges at the end. *)

open Ptl_isa
open Ptl_arch

module Spec := Ptl_spec.Spec

(** Outcome of a lockstep run. *)
type result =
  | Agree of int  (* committed units compared *)
  | Diverged of { after : int; diffs : string list }
  | Unsupported of { after : int; what : string }

(** Mapped-address predicate matching the address space [Machine.create]
    builds: the code image's pages, [Machine.stack_pages] below
    [Machine.stack_top], and the default 64 heap pages at
    [Machine.heap_base]. *)
val valid_for_machine : Asm.image -> int64 -> bool

(** Compare the oracle's final state against an arbitrary machine (used
    by the fuzz harness to break seq-vs-timed ties with the oracle's
    verdict). *)
val final_diffs :
  ?mem_ranges:(int64 * int) list ->
  Spec.state -> Machine.t -> string list

(** Run the oracle alone on [image] until it halts, faults or exhausts
    [max_insns], mirroring [Machine.create]'s initial register file.
    Combined with {!final_diffs} this gives the fuzz harness a third,
    independent verdict when the sequential and timed cores disagree. *)
val run_oracle :
  ?table:Spec.table ->
  ?max_insns:int -> Asm.image -> Spec.state

(** One lockstep pass of the oracle against a sequential core that
    commits one unit per [Seqcore.step_block] ({!check}'s pass, with the
    core stepped by whoever owns it). *)
type rider

(** Start a pass over [m], a fresh machine, and a core on it built with
    [~max_bb_insns:1]; arguments as {!check}. The core must not have
    stepped yet, and every later [step_block] of it must be reported to
    {!observe} until the pass has its result. *)
val ride :
  ?table:Spec.table ->
  ?max_insns:int ->
  ?mem_ranges:(int64 * int) list ->
  ?probe:(index:int -> before:int -> after:int -> unit) ->
  Machine.t -> Seqcore.t -> rider

(** Report one [step_block] of the pass's core that returned (one that
    raised [Assists.Triple_fault] ends the caller's run). Steps after the
    pass has its result are ignored: it compares up to its own stopping
    point (the oracle reaching [max_insns], or the core halting) and the
    memory ranges there. *)
val observe : rider -> Seqcore.status -> unit

(** Step the pass's core to the pass's stopping point and return the
    result, exactly as {!check} on the same image would. *)
val finish_ride : rider -> result

(** Run [image] in lockstep on the sequential core and the oracle.
    [probe ~index ~before ~after] fires after every oracle unit with the
    0-based unit index and the oracle's flags on either side of it (the
    conformance property tests hang their lattice assertions on it).
    Memory over [mem_ranges] is compared at the end. *)
val check :
  ?table:Spec.table ->
  ?max_insns:int ->
  ?mem_ranges:(int64 * int) list ->
  ?probe:(index:int -> before:int -> after:int -> unit) ->
  Asm.image -> result
