(** Declarative per-instruction specification of the x86lite-64 ISA: one
    row per mnemonic with its operand shapes, a per-flag
    Written/Preserved/Undefined lattice, the exception conditions it can
    raise, and an executable semantic function over a small
    architectural {!state}. {!Ptl_oracle.Oracle} interprets programs
    from these rows and {!Ptl_oracle.Conformance} derives property and
    exception suites from them. The semantics share no code with the
    cores they referee. *)

open Ptl_util

module Insn := Ptl_isa.Insn
module Flags := Ptl_isa.Flags

(** Per-flag static effect. [Written]: the model computes the flag from
    the operation (property tests assert the write is non-vacuous over
    the corner sweep). [Preserved]: never modified (asserted on every
    case). [Undefined]: real x86 leaves it undefined or the update is
    count/operand-conditional; only oracle/core agreement is asserted. *)
type effect_ = Written | Preserved | Undefined

(** Per-flag effects of one row. *)
type lattice

(** Look up one flag's effect by its {!Flags.all_cc} name. *)
val effect_of : lattice -> string -> effect_

(** Operand shapes a row admits; drives the derived property-test
    generator (which sizes to sweep, whether memory forms exist). *)
type shape =
  | Plain  (* fixed operands or none: nop, cpuid, hlt, ret, ... *)
  | Alu_shape of W64.size list  (* rm dst x (reg|imm|mem) src *)
  | Rm_shape of W64.size list  (* single rm operand *)
  | Shift_shape of W64.size list
  | Widen_shape of (W64.size * W64.size) list  (* movzx/movsx (dst,src) *)
  | Reg_rm_shape of W64.size list  (* reg dst, rm src: imul2, cmovcc *)
  | Mul_shape of W64.size list  (* implicit rdx:rax widening forms *)
  | Push_shape
  | Pop_shape
  | Bit_shape of W64.size list
  | String_shape of W64.size list
  | Xchg_shape of W64.size list  (* xchg/xadd/cmpxchg rm x reg *)
  | Branch_shape
  | Setcc_shape
  | Fp_mem_shape  (* fld/fst/fadd..: one B8 memory operand *)
  | Fp_reg_shape  (* xmm,xmm binary / unary moves *)
  | Cvt_shape
  | Flagio_shape

(** Exception conditions a row can trigger; the table-driven exception
    tests build one trigger scenario per condition per row. *)
type fault_cond =
  | F_de  (* #DE: divide by zero or quotient overflow *)
  | F_gp_user  (* #GP: privileged instruction in user mode *)
  | F_pf

(** A predicted architectural fault, with enough detail to compare
    against the delivery path (vector and CR2). *)
type fault =
  | Divide_fault
  | Privilege_fault
  | Access_fault of { addr : int64; write : bool }

(** x86 exception vector of a fault: #DE 0, #GP 13, #PF 14. *)
val fault_vector : fault -> int

(** Privilege level the oracle runs at. *)
type mode = User | Kernel

(** The oracle's whole world: registers, flags, rip and a byte-granular
    sparse memory over a backing function (the code image; unmapped-but-
    valid pages read as zero, like the machine's freshly mapped pages).
    Memory writes are journaled per step so a faulting instruction
    leaves no partial state behind, mirroring the sequential core's
    buffered macro-instruction commit. *)
type state = {
  regs : int64 array;  (* 16 GPRs, x86-64 encoding order *)
  xmms : int64 array;
  mutable st0 : int64;
  mutable rip : int64;
  mutable flags : int;
  mutable mode : mode;
  mutable halted : bool;
  mutable insns : int;  (* committed-unit count, aligned with seqcore *)
  mem : (int64, int) Hashtbl.t;  (* committed byte writes *)
  mutable journal : (int64 * int) list;  (* this step's pending writes *)
  backing : int64 -> int option;  (* initial contents (code image) *)
  valid : int64 -> bool;  (* mapped-address predicate, for #PF *)
}

(** Raised by a row's semantics when the instruction faults. *)
exception Spec_fault of fault

(** Raised for an instruction no row (or row shape) covers. *)
exception Unsupported_insn of string

(** A fresh state at [rip] with zeroed registers: [backing] gives the
    initial byte contents of memory, [valid] which addresses are
    mapped. *)
val make_state :
  rip:int64 ->
  flags:int ->
  mode:mode ->
  backing:(int64 -> int option) -> valid:(int64 -> bool) -> unit -> state

(** Operand width in bits. *)
val bits : W64.size -> int

(** All-ones mask of an operand width. *)
val size_mask : W64.size -> int64

(** One byte as the current step sees it (its own pending writes
    included). Raises {!Spec_fault} on an unmapped address. *)
val read_byte : state -> int64 -> int

(** Little-endian load of [size] bytes, as {!read_byte}. *)
val read_mem : state -> W64.size -> int64 -> int64

(** [read_range st base len]: the [len] bytes from [base] as {!read_byte}
    sees them, built from the backing, then the committed writes, then
    the pending journal. Raises the {!Spec_fault} {!read_byte} raises at
    the lowest unmapped address in the range. *)
val read_range : state -> int64 -> int -> Bytes.t

(** Flush the step's journaled writes into committed memory. The oracle
    driver calls this after a successful step; a faulting step drops the
    journal instead, so no partial instruction is ever visible. *)
val commit_journal : state -> unit

(** Drop the step's journaled writes (the step faulted). *)
val discard_journal : state -> unit

(** What one committed execution unit did with control. [Repeat] is one
    REP-string iteration: rip stays put, matching the sequential core's
    one-commit-per-loop-pass counting (a REP with count k commits k+1
    units: k body passes plus the final exit test). *)
type step = Next | Jump of int64 | Repeat | Halt_step

(** A row's semantics: execute one unit of the instruction against the
    state, given the address of the next instruction. *)
type sem = state -> Insn.t -> next_rip:int64 -> step

(** One mnemonic's specification. *)
type row = {
  key : string;  (* Insn.mnemonic *)
  shape : shape;
  lattice : lattice;
  faults : fault_cond list;
  note : string;  (* model deviations from real x86, "" if none *)
  sem : sem;
}

(** Rows by mnemonic key. *)
type table = (string, row) Hashtbl.t

(** The specification: one row per mnemonic the fuzz generator reaches. *)
val table : table

(** The row for a key, if any. *)
val find : table -> string -> row option

(** The row key of an instruction (its mnemonic). *)
val key_of_insn : Insn.t -> string

(** Plant a spec bug for the harness self-test: return a copy of [t]
    where [key]'s semantics restore the flag bits in [mask] to their
    pre-instruction values (i.e. the row no longer writes them) and the
    lattice claims they are Preserved. The three-way fuzz harness must
    localize the resulting divergence to the oracle. *)
val drop_flag_write : key:string -> mask:int -> table -> table

(** Generator mnemonics against table rows. *)
type coverage = {
  covered : string list;  (* generator keys with a spec row *)
  missing : string list;  (* generator keys with no row *)
  extra : string list;  (* rows no generator path reaches *)
}

(** Which mnemonics the fuzz generator can produce have a row in [t]
    (default {!table}), which do not, and which rows it never reaches. *)
val coverage : ?t:table -> unit -> coverage

(** Share of generator mnemonics with a row, in percent. *)
val coverage_pct : coverage -> float
