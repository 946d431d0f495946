(** Binary decoder: byte stream to instruction AST, pulling bytes
    through a fetch callback so the caller decides where code comes
    from (flat buffers, or guest virtual memory with page-crossing and
    fault semantics). *)

(** Undefined encoding at this address; the cores turn it into #UD. *)
exception Invalid_opcode of int64

(** Decode one instruction at virtual address [rip], fetching bytes through
    [fetch]. Returns the instruction and its encoded length. Raises
    [Invalid_opcode] on undefined encodings; any exception raised by
    [fetch] (such as a page-fault marker) propagates. *)
val decode : fetch:(int64 -> int) -> rip:int64 -> Insn.t * int
