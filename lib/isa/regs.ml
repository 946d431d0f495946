(** Architectural register file layout of the x86lite-64 guest ISA.

    Sixteen 64-bit general purpose registers in the x86-64 encoding order,
    sixteen SSE-style scalar-double registers, and eight x87-style stack
    registers (addressed relative to a top-of-stack pointer kept in the
    VCPU context, as on real x86). *)

type gpr = int (* 0..15 *)
type xmm = int (* 0..15 *)

let num_gprs = 16
let num_xmms = 16

(* x86-64 encoding order. *)
let rax = 0
let rcx = 1
let rdx = 2
let rbx = 3
let rsp = 4
let rbp = 5
let rsi = 6
let rdi = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

let gpr_names =
  [| "rax"; "rcx"; "rdx"; "rbx"; "rsp"; "rbp"; "rsi"; "rdi";
     "r8"; "r9"; "r10"; "r11"; "r12"; "r13"; "r14"; "r15" |]

let gpr_name r =
  if r < 0 || r >= num_gprs then invalid_arg "Regs.gpr_name";
  gpr_names.(r)

let gpr_of_name name =
  let rec go i =
    if i >= num_gprs then invalid_arg ("Regs.gpr_of_name: " ^ name)
    else if String.equal gpr_names.(i) name then i
    else go (i + 1)
  in
  go 0

let xmm_name x = Printf.sprintf "xmm%d" x
let valid_gpr r = r >= 0 && r < num_gprs
let valid_xmm x = x >= 0 && x < num_xmms
