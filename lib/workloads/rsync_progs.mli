(** The rsync-over-ssh benchmark programs (§5), as real guest code: an
    rsync client (file list, rolling-checksum delta algorithm, LZ-lite
    compression), an ssh client and sshd pair (RC4 over a loopback TCP
    connection), and the rsync server applying the deltas. *)

(** All programs of the benchmark, ready for {!Ptl_kernel.Kernel}. *)
val programs : unit -> (string * Ptl_isa.Asm.image) list
