(** Structural invariant supervisor: wraps a {!Ptl_ooo.Registry}
    instance, sweeps the core's ROB/LSQ/IQ/physreg/interlock and memory
    structures every few steps, and turns a violation into a tagged
    {!Ptl_ooo.Sim_failure} (or, under [degrade], rolls back and finishes
    on the sequential core). *)

module Env := Ptl_arch.Env
module Context := Ptl_arch.Context
module Registry := Ptl_ooo.Registry

(** One named structural check. [run] returns a violation description,
    or None while the invariant holds. [stride] cost-tiers the check:
    it runs on every [stride]-th sweep only (1 = every sweep). Full
    memory-array scans (cache tags, TLB levels, pagetable walks) are
    orders of magnitude more expensive than the core-structure checks,
    so they ride a slower cadence to keep the default sweep interval
    under the <10% overhead budget. *)
type check = {
  name : string;
  subsystem : string;
  stride : int;
  run : unit -> string option;
}

(** A check named [name], tagged with [subsystem] in the failures it
    raises; [stride] defaults to 1. *)
val make_check :
  ?stride:int -> name:string -> subsystem:string -> (unit -> string option) -> check

(** First violated check of [checks], with its message. *)
val first_violation : check list -> (check * string) option

(** The invariant set behind a registry instance, chosen by its handle
    (empty for the sequential core, which has no microarchitectural
    state). With {!first_violation} this is the referee the corruption
    tests plant bugs against. *)
val checks_for_instance :
  ?strict_tlb:bool -> Env.t -> Registry.instance -> check list

type config = {
  interval : int;  (* run the invariant set every N steps *)
  checkpoint_every : int;  (* cycles between snapshots; 0 = none *)
  degrade : bool;  (* roll back + finish on the seq core on failure *)
  strict_tlb : bool;  (* arm the TLB↔pagetable agreement check *)
}

(** Sweep every 64 steps, no periodic snapshots, re-raise failures. *)
val default_config : config

(** Add an extra named check (e.g. a test's planted tripwire) to a
    wrapped instance. No effect on instances not produced by {!wrap}. *)
val register_check : Registry.instance -> check -> unit

(** Wrap [inst] in a supervisor over the (single) context [ctx]. The
    wrapped instance steps the original core, samples the invariant set
    every [interval] steps, snapshots every [checkpoint_every] cycles
    (when > 0, or once at wrap time under [degrade]), and contains
    failures per [config]. Diagnostic bundles go to [out] (stderr by
    default). *)
val wrap :
  ?config:config ->
  ?out:out_channel ->
  env:Env.t -> ctx:Context.t -> Registry.instance -> Registry.instance
