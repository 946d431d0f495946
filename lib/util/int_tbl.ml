(** Hash tables keyed by [int], hashed and compared in OCaml: no call
    into the runtime's polymorphic [caml_hash] or [compare] per probe.

    Keys on the memory path are line or word addresses whose low bits are
    all zero, so the hash multiplies and folds the high half down before
    the table masks off its low bits. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)
