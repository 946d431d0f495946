(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), pure OCaml. The
    durable interval store (lib/store) checksums every payload with this
    so bit rot and truncation are detected before a corrupt checkpoint
    can silently poison a replay.

    Slicing-by-8: eight 256-entry tables fold a whole 8-byte word per
    step, so a checksum costs about one table lookup per byte instead of
    a dependent lookup chain. The running CRC lives in a native [int]
    (32 of its 63 bits used) and is only boxed at the API boundary. *)

(* Reflected polynomial 0xEDB88320. Eight 256-entry tables laid end to
   end: entry [256 * k + n] is the CRC of byte [n] followed by [k] zero
   bytes, so tables 7 .. 0 together advance the CRC over eight bytes at
   once; table 0 is the classic byte-at-a-time one. Built on first use:
   most runs never checksum anything. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to (8 * 256) - 1 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
     done;
     t)

(** Fold [len] bytes of [s] starting at [pos] into a running CRC
    (start from {!empty}; the stored value is the finalized CRC).
    Raises [Invalid_argument] when [pos, len] is not a slice of [s]. *)
let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let t = Lazy.force tables in
  let c = ref (lnot (Int32.to_int crc) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let w = String.get_int64_le s !i in
    let lo = Int64.to_int w land 0xFFFFFFFF lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := (!c lsr 8) lxor Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
  done;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let empty = 0l

(** CRC-32 of a whole string. *)
let string s = update empty s ~pos:0 ~len:(String.length s)
