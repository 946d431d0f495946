(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8. Used by
    the durable interval store to checksum every on-disk payload. *)

(** The CRC of the empty string; the accumulator to start from. *)
val empty : int32

(** Fold [len] bytes of [s] at [pos] into a running CRC. Chaining
    [update] calls over consecutive slices equals {!string} of their
    concatenation. Raises [Invalid_argument] unless [0 <= pos],
    [0 <= len] and [pos + len <= String.length s]. *)
val update : int32 -> string -> pos:int -> len:int -> int32

(** CRC-32 of a whole string. *)
val string : string -> int32
