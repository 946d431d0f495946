(** 64-bit machine words and size-truncated arithmetic.

    Guest register values are [int64] (OCaml's native [int] is 63 bits).
    This module is the single definition of the unsigned comparisons,
    carry/overflow detection, truncation and sign extension that underlie
    every ALU result in the simulator, so flag semantics live in exactly
    one place. *)

type t = int64

(** Operand widths of the guest ISA, in bytes. *)
type size = B1 | B2 | B4 | B8

val bytes_of_size : size -> int
val bits_of_size : size -> int

(** Inverse of [bytes_of_size]; raises [Invalid_argument] on other
    values. *)
val size_of_bytes : int -> size

(** One-letter suffix ("b"/"w"/"d"/"q"), for disassembly. *)
val size_to_string : size -> string

val mask_of_size : size -> t

(** Keep only the low [size] bytes (zero-extending). *)
val truncate : size -> t -> t

(** Sign-extend the low [size] bytes of the value to 64 bits. *)
val sign_extend : size -> t -> t

(** Sign bit of the low [size] bytes. *)
val sign_bit : size -> t -> bool

val is_zero : size -> t -> bool

(** Unsigned comparison with the [compare] convention. *)
val ucompare : t -> t -> int

(** x86 PF: true when the low 8 bits have even parity. *)
val parity : t -> bool

(** [add_carry size a b carry_in] is [(result, carry_out, overflow)] for
    the addition at the given width; the result is truncated. *)
val add_carry : size -> t -> t -> bool -> t * bool * bool

(** [sub_borrow size a b borrow_in] matches x86 [sbb] semantics. *)
val sub_borrow : size -> t -> t -> bool -> t * bool * bool

(** Shifts and rotates return [(result, carry_out, overflow)] where the
    flag components are [None] when x86 leaves them unchanged (count 0;
    overflow defined only for 1-bit shifts). Counts are masked to the
    operand width as on x86. *)
val shl : size -> t -> int -> t * bool option * bool option

val shr : size -> t -> int -> t * bool option * bool option
val sar : size -> t -> int -> t * bool option * bool option
val rol : size -> t -> int -> t * bool option * bool option
val ror : size -> t -> int -> t * bool option * bool option

(** Full 64x64 -> 128-bit multiplies; [(low, high)]. *)
val umul128 : t -> t -> t * t

val smul128 : t -> t -> t * t

(** Byte [i] (0 = least significant). *)
val byte : t -> int -> int

(** Assemble a word from [n] little-endian bytes produced by the
    function. *)
val of_bytes : int -> (int -> int) -> t
