(** RC4-style stream cipher, in two matching forms: a guest assembly
    routine (the "ssh" encryption the paper's benchmark pipes all rsync
    traffic through, §5) and a host OCaml oracle used by the tests to
    verify the guest code byte for byte.

    Guest state layout: 256 bytes of S-box followed by one byte each for
    the i and j indices (258 bytes total). *)

module G = Gasm

(** rc4_init(rdi=state, rsi=key, rdx=keylen). Clobbers caller-saved. *)
let emit_init_fn g =
  G.label g "rc4_init";
  G.mov g G.r10 G.rdx (* keylen *);
  (* S[i] = i *)
  G.xor g G.rcx G.rcx;
  let fill = G.fresh g "rc4_fill" in
  G.label g fill;
  G.stb g ~base:G.rdi ~index:G.rcx G.rcx ();
  G.inc g G.rcx;
  G.cmpi g G.rcx 256;
  G.jne g fill;
  (* key schedule *)
  G.xor g G.r9 G.r9 (* j *);
  G.xor g G.rcx G.rcx (* i *);
  let ksa = G.fresh g "rc4_ksa" in
  G.label g ksa;
  G.ldb g G.r8 ~base:G.rdi ~index:G.rcx () (* S[i] *);
  (* rdx = i mod keylen *)
  G.mov g G.rax G.rcx;
  G.xor g G.rdx G.rdx;
  G.ins g (Ptl_isa.Insn.Muldiv (Ptl_isa.Insn.Div, Ptl_util.W64.B8, Ptl_isa.Insn.Reg G.r10));
  G.ldb g G.r11 ~base:G.rsi ~index:G.rdx () (* key byte *);
  G.add g G.r9 G.r8;
  G.add g G.r9 G.r11;
  G.andi g G.r9 255;
  (* swap S[i] <-> S[j] *)
  G.ldb g G.rax ~base:G.rdi ~index:G.r9 ();
  G.stb g ~base:G.rdi ~index:G.rcx G.rax ();
  G.stb g ~base:G.rdi ~index:G.r9 G.r8 ();
  G.inc g G.rcx;
  G.cmpi g G.rcx 256;
  G.jne g ksa;
  (* i = j = 0 *)
  G.xor g G.rax G.rax;
  G.stb g ~base:G.rdi ~disp:256 G.rax ();
  G.stb g ~base:G.rdi ~disp:257 G.rax ();
  G.ret g

(** rc4_crypt(rdi=state, rsi=buf, rdx=len): xors the keystream in place
    (encrypt = decrypt). Clobbers caller-saved; preserves rbx. *)
let emit_crypt_fn g =
  G.label g "rc4_crypt";
  G.push g G.rbx;
  G.mov g G.r10 G.rdx (* len *);
  G.ldb g G.r8 ~base:G.rdi ~disp:256 () (* i *);
  G.ldb g G.r9 ~base:G.rdi ~disp:257 () (* j *);
  G.xor g G.rcx G.rcx;
  let top = G.fresh g "rc4_top" in
  let out = G.fresh g "rc4_out" in
  G.label g top;
  G.cmp g G.rcx G.r10;
  G.je g out;
  G.inc g G.r8;
  G.andi g G.r8 255;
  G.ldb g G.rax ~base:G.rdi ~index:G.r8 () (* S[i] *);
  G.add g G.r9 G.rax;
  G.andi g G.r9 255;
  G.ldb g G.rdx ~base:G.rdi ~index:G.r9 () (* S[j] *);
  G.stb g ~base:G.rdi ~index:G.r8 G.rdx ();
  G.stb g ~base:G.rdi ~index:G.r9 G.rax ();
  G.add g G.rax G.rdx;
  G.andi g G.rax 255;
  G.ldb g G.r11 ~base:G.rdi ~index:G.rax () (* keystream byte *);
  G.ldb g G.rbx ~base:G.rsi ~index:G.rcx ();
  G.xor g G.rbx G.r11;
  G.stb g ~base:G.rsi ~index:G.rcx G.rbx ();
  G.inc g G.rcx;
  G.jmp g top;
  G.label g out;
  G.stb g ~base:G.rdi ~disp:256 G.r8 ();
  G.stb g ~base:G.rdi ~disp:257 G.r9 ();
  G.pop g G.rbx;
  G.ret g

(** Host-side oracle with identical semantics. *)
module Oracle = struct
  type t = { s : int array; mutable i : int; mutable j : int }

  let init key =
    let s = Array.init 256 (fun i -> i) in
    let j = ref 0 in
    for i = 0 to 255 do
      j := (!j + s.(i) + Char.code key.[i mod String.length key]) land 255;
      let tmp = s.(i) in
      s.(i) <- s.(!j);
      s.(!j) <- tmp
    done;
    { s; i = 0; j = 0 }

  let crypt t buf =
    Bytes.mapi
      (fun _ c ->
        t.i <- (t.i + 1) land 255;
        t.j <- (t.j + t.s.(t.i)) land 255;
        let tmp = t.s.(t.i) in
        t.s.(t.i) <- t.s.(t.j);
        t.s.(t.j) <- tmp;
        let k = t.s.((t.s.(t.i) + t.s.(t.j)) land 255) in
        Char.chr (Char.code c lxor k))
      buf

  let crypt_string t s = Bytes.to_string (crypt t (Bytes.of_string s))
end
