(** 64-bit machine words and size-truncated arithmetic.

    Guest register values are [int64] (OCaml's native [int] is 63 bits wide).
    This module centralises the unsigned comparisons, carry/overflow
    detection, truncation and sign extension needed by both the functional
    core and the out-of-order core's ALU models, so flag semantics are
    defined in exactly one place. *)

type t = int64

(* Operand widths of the guest ISA, in bytes. *)
type size = B1 | B2 | B4 | B8

let bytes_of_size = function B1 -> 1 | B2 -> 2 | B4 -> 4 | B8 -> 8
let bits_of_size = function B1 -> 8 | B2 -> 16 | B4 -> 32 | B8 -> 64

let size_of_bytes = function
  | 1 -> B1
  | 2 -> B2
  | 4 -> B4
  | 8 -> B8
  | n -> invalid_arg (Printf.sprintf "W64.size_of_bytes: %d" n)

let size_to_string = function B1 -> "b" | B2 -> "w" | B4 -> "d" | B8 -> "q"

let mask_of_size = function
  | B1 -> 0xFFL
  | B2 -> 0xFFFFL
  | B4 -> 0xFFFF_FFFFL
  | B8 -> -1L

(** Keep only the low [size] bytes (zero-extending). *)
let truncate size v = Int64.logand v (mask_of_size size)

(** Sign-extend the low [size] bytes of [v] to 64 bits. *)
let sign_extend size v =
  match size with
  | B1 -> Int64.shift_right (Int64.shift_left v 56) 56
  | B2 -> Int64.shift_right (Int64.shift_left v 48) 48
  | B4 -> Int64.shift_right (Int64.shift_left v 32) 32
  | B8 -> v

(** Sign bit of the low [size] bytes. *)
let sign_bit size v =
  Int64.logand (Int64.shift_right_logical v (bits_of_size size - 1)) 1L = 1L

let is_zero size v = truncate size v = 0L

(** Unsigned comparison: negative, zero or positive like [compare]. *)
let ucompare a b = Int64.unsigned_compare a b

let ult a b = ucompare a b < 0

(** Parity flag of the low byte (set when the low 8 bits have even parity),
    matching the x86 PF definition. *)
let parity v =
  let b = Int64.to_int (Int64.logand v 0xFFL) in
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  let b = b lxor (b lsr 1) in
  b land 1 = 0

(** [add_carry size a b cin] returns [(result, carry_out, overflow)] for the
    addition of the low [size] bytes of [a] and [b] plus carry-in. The result
    is truncated to [size]. *)
let add_carry size a b cin =
  let a = truncate size a and b = truncate size b in
  let c = if cin then 1L else 0L in
  let full = Int64.add (Int64.add a b) c in
  let r = truncate size full in
  let carry =
    match size with
    | B8 ->
      (* Carry out of bit 63: r < a, or r = a with carry-in consuming b. *)
      ult full a || (cin && full = a)
    | _ -> Int64.logand full (Int64.shift_left 1L (bits_of_size size)) <> 0L
  in
  let sa = sign_bit size a and sb = sign_bit size b and sr = sign_bit size r in
  let overflow = sa = sb && sr <> sa in
  (r, carry, overflow)

(** [sub_borrow size a b bin] returns [(result, borrow_out, overflow)] for
    [a - b - bin] on the low [size] bytes, matching x86 [sbb] semantics. *)
let sub_borrow size a b bin =
  let a = truncate size a and b = truncate size b in
  let c = if bin then 1L else 0L in
  let full = Int64.sub (Int64.sub a b) c in
  let r = truncate size full in
  let borrow = ult a b || (bin && a = b) in
  let sa = sign_bit size a and sb = sign_bit size b and sr = sign_bit size r in
  let overflow = sa <> sb && sr <> sa in
  (r, borrow, overflow)

(** Logical shift left on the low [size] bytes. Returns
    [(result, last_bit_shifted_out, overflow)] where overflow follows the x86
    rule for 1-bit shifts (CF <> new sign). Count is masked to the operand
    width as on x86 (mod 32 for <=32-bit, mod 64 for 64-bit). *)
let shl size v count =
  let width = bits_of_size size in
  let count = count land (if size = B8 then 63 else 31) in
  if count = 0 then (truncate size v, None, None)
  else if count >= width then (0L, Some (count = width && Int64.logand v 1L = 1L), None)
  else begin
    let v = truncate size v in
    let r = truncate size (Int64.shift_left v count) in
    let cf = Int64.logand (Int64.shift_right_logical v (width - count)) 1L = 1L in
    let ov = if count = 1 then Some (cf <> sign_bit size r) else None in
    (r, Some cf, ov)
  end

let shr size v count =
  let width = bits_of_size size in
  let count = count land (if size = B8 then 63 else 31) in
  if count = 0 then (truncate size v, None, None)
  else if count >= width then (0L, Some false, None)
  else begin
    let v = truncate size v in
    let r = Int64.shift_right_logical v count in
    let cf = Int64.logand (Int64.shift_right_logical v (count - 1)) 1L = 1L in
    let ov = if count = 1 then Some (sign_bit size v) else None in
    (r, Some cf, ov)
  end

let sar size v count =
  let width = bits_of_size size in
  let count = count land (if size = B8 then 63 else 31) in
  if count = 0 then (truncate size v, None, None)
  else begin
    let sv = sign_extend size v in
    let count' = min count (width - 1) in
    let r = truncate size (Int64.shift_right sv count') in
    let cf =
      if count >= width then sign_bit size v
      else Int64.logand (Int64.shift_right sv (count - 1)) 1L = 1L
    in
    let ov = if count = 1 then Some false else None in
    (r, Some cf, ov)
  end

let rol size v count =
  let width = bits_of_size size in
  let count = count mod width in
  let v = truncate size v in
  if count = 0 then (v, None, None)
  else begin
    let r =
      truncate size
        (Int64.logor (Int64.shift_left v count)
           (Int64.shift_right_logical v (width - count)))
    in
    let cf = Int64.logand r 1L = 1L in
    let ov = if count = 1 then Some (cf <> sign_bit size r) else None in
    (r, Some cf, ov)
  end

let ror size v count =
  let width = bits_of_size size in
  let count = count mod width in
  let v = truncate size v in
  if count = 0 then (v, None, None)
  else begin
    let r =
      truncate size
        (Int64.logor (Int64.shift_right_logical v count)
           (Int64.shift_left v (width - count)))
    in
    let cf = sign_bit size r in
    let ov =
      if count = 1 then
        Some (sign_bit size r <> (Int64.logand (Int64.shift_right_logical r (width - 2)) 1L = 1L))
      else None
    in
    (r, Some cf, ov)
  end

(** Full 64x64 -> 128-bit unsigned multiply; returns (low, high). *)
let umul128 a b =
  let mask32 = 0xFFFF_FFFFL in
  let al = Int64.logand a mask32 and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask32 and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add lh hl) (Int64.shift_right_logical ll 32) in
  (* Carry out of the mid sum into the high word. *)
  let carry = if ult mid lh then Int64.shift_left 1L 32 else 0L in
  let lo = Int64.logor (Int64.shift_left mid 32) (Int64.logand ll mask32) in
  let hi =
    Int64.add (Int64.add hh (Int64.shift_right_logical mid 32)) carry
  in
  (lo, hi)

(** Signed 64x64 -> 128-bit multiply; returns (low, high). *)
let smul128 a b =
  let lo, hi = umul128 a b in
  let hi = if a < 0L then Int64.sub hi b else hi in
  let hi = if b < 0L then Int64.sub hi a else hi in
  (lo, hi)

(** Byte [i] (0 = least significant) of [v]. *)
let byte v i = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)

(** Assemble a word from [n] little-endian bytes produced by [f]. *)
let of_bytes n f =
  let rec go i acc =
    if i >= n then acc
    else go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int (f i land 0xFF)) (8 * i)))
  in
  go 0 0L
