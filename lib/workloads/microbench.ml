(** Microbenchmark guest programs — the compute-bound kernels used by the
    ablation benches and examples, each a generator producing a bare-metal
    image that ends in [hlt] with its result in rax.

    - {!pointer_chase}: dependent loads through a shuffled permutation —
      measures load-to-use and cache/TLB latency (every load depends on
      the previous one, so IPC collapses to memory latency).
    - {!stream}: linear read-modify-write sweeps — bandwidth-shaped,
      prefetcher-friendly.
    - {!matmul}: naive dense SSE-double matrix multiply — FP pipeline and
      cache blocking behaviour.
    - {!qsort}: recursive quicksort over 64-bit keys — call/return (RAS)
      and hard-to-predict compare branches.
    - {!compute}: an in-cache load/store loop with a multiply, the
      sampling and fleet workload (bare, or as a minios user program). *)

open Ptl_util
module G = Gasm
module Insn = Ptl_isa.Insn
module Flags = Ptl_isa.Flags

let heap = Ptl_arch.Machine.heap_base

(** Build the chase permutation host-side (a single cycle through all
    slots, deterministic). Returns the (vaddr, bytes) blob to preload. *)
let chase_table ~slots ~seed =
  let rng = Rng.create seed in
  let order = Array.init slots (fun i -> i) in
  for i = slots - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (* next.(order[i]) = order[i+1]: one big cycle *)
  let next = Array.make slots 0 in
  for i = 0 to slots - 1 do
    next.(order.(i)) <- order.((i + 1) mod slots)
  done;
  let b = Buffer.create (slots * 8) in
  Array.iter
    (fun n ->
      let target = Int64.add heap (Int64.of_int (n * 8)) in
      for k = 0 to 7 do
        Buffer.add_char b (Char.chr (W64.byte target k))
      done)
    next;
  (heap, Buffer.contents b)

(** Pointer chase: [steps] dependent loads through [slots] 8-byte cells.
    rax ends holding the final pointer (consumed so it cannot be dead). *)
let pointer_chase ~slots ~steps =
  ignore slots;
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rax heap;
  G.lii g G.rcx steps;
  G.label g "top";
  G.ins g (Insn.Mov (W64.B8, Insn.Reg G.rax, Insn.RM (Insn.Mem (Insn.mem_bd G.rax 0L))));
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  G.assemble g

(** Stream: [passes] read-modify-write sweeps over [bytes] of memory in
    8-byte strides. rax ends holding the running sum. *)
let stream ~bytes ~passes =
  let g = G.create ~base:0x40_0000L () in
  G.xor g G.rax G.rax;
  G.lii g G.r12 passes;
  G.label g "pass";
  G.li g G.rsi heap;
  G.lii g G.rcx (bytes / 8);
  G.label g "top";
  G.ld g G.rdx ~base:G.rsi ();
  G.addi g G.rdx 3;
  G.st g ~base:G.rsi G.rdx ();
  G.add g G.rax G.rdx;
  G.addi g G.rsi 8;
  G.dec g G.rcx;
  G.jne g "top";
  G.dec g G.r12;
  G.jne g "pass";
  G.ins g Insn.Hlt;
  G.assemble g

(** Naive [n]x[n] double matrix multiply C = A*B over SSE scalar ops.
    A at heap, B at heap + n*n*8, C after that. The matrices must be
    preloaded (or zero); rax returns the address of C. *)
let matmul ~n =
  let g = G.create ~base:0x40_0000L () in
  let a_base = heap in
  let b_base = Int64.add heap (Int64.of_int (n * n * 8)) in
  let c_base = Int64.add heap (Int64.of_int (2 * n * n * 8)) in
  (* r12 = i, r13 = j, r14 = k *)
  G.xor g G.r12 G.r12;
  G.label g "i_loop";
  G.xor g G.r13 G.r13;
  G.label g "j_loop";
  (* xmm0 = 0 accumulator *)
  G.xor g G.rax G.rax;
  G.ins g (Insn.Cvtsi2sd (0, G.rax));
  G.xor g G.r14 G.r14;
  G.label g "k_loop";
  (* xmm1 = A[i*n + k] *)
  G.mov g G.rax G.r12;
  G.imuli g G.rax n;
  G.add g G.rax G.r14;
  G.shl g G.rax 3;
  G.li g G.rdx a_base;
  G.add g G.rdx G.rax;
  G.ins g (Insn.SseLoad (1, Insn.mem_bd G.rdx 0L));
  (* xmm2 = B[k*n + j] *)
  G.mov g G.rax G.r14;
  G.imuli g G.rax n;
  G.add g G.rax G.r13;
  G.shl g G.rax 3;
  G.li g G.rdx b_base;
  G.add g G.rdx G.rax;
  G.ins g (Insn.SseLoad (2, Insn.mem_bd G.rdx 0L));
  (* xmm0 += xmm1 * xmm2 *)
  G.ins g (Insn.Sse (Insn.Mulsd, 1, 2));
  G.ins g (Insn.Sse (Insn.Addsd, 0, 1));
  G.inc g G.r14;
  G.cmpi g G.r14 n;
  G.jne g "k_loop";
  (* C[i*n + j] = xmm0 *)
  G.mov g G.rax G.r12;
  G.imuli g G.rax n;
  G.add g G.rax G.r13;
  G.shl g G.rax 3;
  G.li g G.rdx c_base;
  G.add g G.rdx G.rax;
  G.ins g (Insn.SseStore (Insn.mem_bd G.rdx 0L, 0));
  G.inc g G.r13;
  G.cmpi g G.r13 n;
  G.jne g "j_loop";
  G.inc g G.r12;
  G.cmpi g G.r12 n;
  G.jne g "i_loop";
  G.li g G.rax c_base;
  G.ins g Insn.Hlt;
  G.assemble g

(** Recursive quicksort of [n] 64-bit keys at the heap base (Hoare
    partition, last element pivot). Exercises deep call/return chains and
    data-dependent branches. *)
let qsort ~n =
  let g = G.create ~base:0x40_0000L () in
  G.jmp g "main";

  (* qsort(rdi = lo index, rsi = hi index) on the array at rbp *)
  G.label g "qsort";
  G.cmp g G.rdi G.rsi;
  G.jcc g Flags.GE "qs_ret";
  List.iter (G.push g) [ G.r12; G.r13; G.r14; G.r15 ];
  G.mov g G.r12 G.rdi (* lo *);
  G.mov g G.r13 G.rsi (* hi *);
  (* pivot = a[hi] *)
  G.ldx g G.r14 ~base:G.rbp ~index:G.r13 () (* pivot *);
  G.mov g G.r15 G.r12 (* store index *);
  G.mov g G.rcx G.r12 (* scan *);
  G.label g "qs_scan";
  G.cmp g G.rcx G.r13;
  G.jcc g Flags.AE "qs_scan_done";
  G.ldx g G.rax ~base:G.rbp ~index:G.rcx ();
  (* keys are unsigned 64-bit *)
  G.cmp g G.rax G.r14;
  G.jcc g Flags.AE "qs_no_swap";
  (* swap a[rcx] <-> a[r15] *)
  G.ldx g G.rdx ~base:G.rbp ~index:G.r15 ();
  G.stx g ~base:G.rbp ~index:G.r15 G.rax ();
  G.stx g ~base:G.rbp ~index:G.rcx G.rdx ();
  G.inc g G.r15;
  G.label g "qs_no_swap";
  G.inc g G.rcx;
  G.jmp g "qs_scan";
  G.label g "qs_scan_done";
  (* swap pivot into place: a[r15] <-> a[hi] *)
  G.ldx g G.rax ~base:G.rbp ~index:G.r15 ();
  G.stx g ~base:G.rbp ~index:G.r15 G.r14 ();
  G.stx g ~base:G.rbp ~index:G.r13 G.rax ();
  (* recurse left: qsort(lo, r15-1) — guard r15 = 0 *)
  G.cmpi g G.r15 0;
  G.je g "qs_left_done";
  G.mov g G.rdi G.r12;
  G.mov g G.rsi G.r15;
  G.dec g G.rsi;
  G.call g "qsort";
  G.label g "qs_left_done";
  (* recurse right: qsort(r15+1, hi) *)
  G.mov g G.rdi G.r15;
  G.inc g G.rdi;
  G.mov g G.rsi G.r13;
  G.call g "qsort";
  List.iter (G.pop g) [ G.r15; G.r14; G.r13; G.r12 ];
  G.label g "qs_ret";
  G.ret g;

  G.label g "main";
  G.li g G.rbp heap;
  G.lii g G.rdi 0;
  G.lii g G.rsi (n - 1);
  G.call g "qsort";
  (* verify sortedness: rax = number of inversions (0 when correct) *)
  G.xor g G.rax G.rax;
  G.lii g G.rcx 0;
  G.label g "chk";
  G.mov g G.rdx G.rcx;
  G.inc g G.rdx;
  G.cmpi g G.rdx n;
  G.jcc g Flags.AE "chk_done";
  G.ldx g G.r8 ~base:G.rbp ~index:G.rcx ();
  G.ldx g G.r9 ~base:G.rbp ~index:G.rdx ();
  G.cmp g G.r8 G.r9;
  G.jcc g Flags.BE "chk_ok";
  G.inc g G.rax;
  G.label g "chk_ok";
  G.inc g G.rcx;
  G.jmp g "chk";
  G.label g "chk_done";
  G.ins g Insn.Hlt;
  G.assemble g

(** Random key blob for qsort (preload at the heap base). *)
let qsort_keys ~n ~seed =
  let rng = Rng.create seed in
  let b = Buffer.create (n * 8) in
  for _ = 1 to n do
    let v = Rng.next64 rng in
    for k = 0 to 7 do
      Buffer.add_char b (Char.chr (W64.byte v k))
    done
  done;
  (heap, Buffer.contents b)

(** GUPS (giga-updates-per-second): [steps] random read-modify-writes over
    a table of [slots] 8-byte cells at the heap base ([slots] must be a
    power of two). Each update hits an LCG-random slot, so with a table
    much larger than TLB reach almost every access is a DTLB miss — the
    canonical huge-page / page-walk-cache stress. rax ends holding the
    last value stored (consumed so the updates cannot be dead).

    [user] builds a minios user-mode image instead (for demand-paging
    runs): the table sits at [heap] — pass [Abi.user_heap_base] — and the
    program ends in an exit syscall rather than [hlt]. *)
let gups ?(base = 0x40_0000L) ?(heap = heap) ?(user = false) ~slots ~steps () =
  if slots land (slots - 1) <> 0 then invalid_arg "gups: slots not a power of two";
  let g = G.create ~base () in
  G.li g G.r8 1L (* LCG state *);
  G.li g G.r9 2862933555777941757L;
  G.li g G.r10 3037000493L;
  G.li g G.r11 heap;
  G.lii g G.rcx steps;
  G.label g "top";
  G.imul g G.r8 G.r9;
  G.add g G.r8 G.r10;
  (* idx = (state >> 11) & (slots - 1), scaled to an 8-byte cell *)
  G.mov g G.rax G.r8;
  G.shr g G.rax 11;
  G.andi g G.rax (slots - 1);
  G.shl g G.rax 3;
  G.add g G.rax G.r11;
  G.ld g G.rdx ~base:G.rax ();
  G.xor g G.rdx G.r8;
  G.st g ~base:G.rax G.rdx ();
  G.dec g G.rcx;
  G.jne g "top";
  G.mov g G.rax G.rdx;
  if user then G.sys_exit g 0 else G.ins g Insn.Hlt;
  G.assemble g

(** The synthetic compute loop of [optlsim compute] and [capture], the
    sampling benches and the store tests: [iters] turns of an in-cache
    load/increment/store plus a multiplicative PRNG step. [bare] ends in
    [hlt] with the cell at the machine heap; otherwise it is a minios
    user program at [Abi.user_heap_base] ending in marker 999 and an
    exit syscall. *)
let compute ~iters ~bare =
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  G.li g G.rbp (if bare then heap else Ptl_kernel.Abi.user_heap_base);
  G.lii g G.rcx iters;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.imuli g G.rbx 1103515245;
  G.addi g G.rbx 12345;
  G.dec g G.rcx;
  G.jne g "top";
  if bare then
    (* no kernel to receive syscalls: halt the VCPU to end the run *)
    G.ins g Insn.Hlt
  else begin
    G.sys_marker g 999;
    G.sys_exit g 0
  end;
  G.assemble g
