(** LZ-lite compression, the "gzip" stage of the rsync pipeline (§5), in
    two matching forms: guest assembly routines and a host-side oracle.
    Tokens are literal runs ([0x00, len, bytes]) and matches ([0x01,
    offset-lo, offset-hi, len]). *)

module G := Gasm

(** Bytes of zeroed hash table the guest compressor needs (32768 8-byte
    entries; the source of the benchmark's DTLB pressure). *)
val hash_table_size : int

(** lz_compress(rdi=src, rsi=len, rdx=dst, rcx=hashtbl) -> rax = outlen.
    The hash table must be zeroed by the caller. *)
val emit_compress_fn : G.t -> unit

(** lz_decompress(rdi=src, rsi=srclen, rdx=dst) -> rax = outlen. *)
val emit_decompress_fn : G.t -> unit

(** Host-side reference codec in the same format: the referee the tests
    cross-validate the guest routines against. *)
module Oracle : sig
  (** Compress a whole buffer. *)
  val compress : string -> string

  (** Inverse of {!compress}. *)
  val decompress : string -> string
end
