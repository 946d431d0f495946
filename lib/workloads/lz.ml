(** LZ-lite compression — the "gzip" stage of the rsync pipeline (§5),
    again in two matching forms: guest assembly (hash-probe match finder,
    greedy emit) and a host OCaml oracle for testing both directions.

    Token format:
    - literal run:  0x00, len (1..255), raw bytes
    - match:        0x01, offset-lo, offset-hi (distance 1..65535), len (3..255)

    The compressor needs a 32768-entry * 8-byte hash table (256 KiB —
    gzip-class dictionary state, and the source of the benchmark's DTLB
    pressure) that the caller provides zeroed once per buffer; stale
    entries from earlier regions are rejected by the 3-byte verify, so
    re-zeroing per block is unnecessary. Compressed output of [n] bytes
    is at most [n + 2n/255 + 8] bytes. *)

module G = Gasm
module Flags = Ptl_isa.Flags

let hash_table_entries = 32768
let hash_table_size = hash_table_entries * 8

(** lz_compress(rdi=src, rsi=len, rdx=dst, rcx=hashtbl) -> rax = outlen.
    The hash table must be zeroed by the caller. *)
let emit_compress_fn g =
  G.label g "lz_compress";
  List.iter (G.push g) [ G.rbx; G.r12; G.r13; G.r14; G.r15; G.rbp ];
  G.mov g G.rbx G.rdi (* src *);
  G.mov g G.r12 G.rsi (* len *);
  G.mov g G.r13 G.rdx (* dst *);
  G.mov g G.r15 G.rcx (* tbl *);
  G.xor g G.r14 G.r14 (* out *);
  G.xor g G.r9 G.r9 (* pos *);
  G.xor g G.r10 G.r10 (* lit_start *);
  let main = G.fresh g "lzc_main" in
  let advance = G.fresh g "lzc_adv" in
  let tail = G.fresh g "lzc_tail" in
  (* flush_lits: emit literal tokens for [r10, r9). local "subroutine"
     inlined twice via a helper *)
  let emit_flush () =
    let fl_top = G.fresh g "lzc_fl" in
    let fl_done = G.fresh g "lzc_fl_done" in
    G.label g fl_top;
    G.cmp g G.r10 G.r9;
    G.jcc g Flags.AE fl_done;
    (* chunk = min(255, r9 - r10) in rbp *)
    G.mov g G.rbp G.r9;
    G.sub g G.rbp G.r10;
    G.cmpi g G.rbp 255;
    let small = G.fresh g "lzc_small" in
    G.jcc g Flags.BE small;
    G.lii g G.rbp 255;
    G.label g small;
    (* emit 0x00, chunk *)
    G.xor g G.rax G.rax;
    G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
    G.inc g G.r14;
    G.stb g ~base:G.r13 ~index:G.r14 G.rbp ();
    G.inc g G.r14;
    (* copy chunk bytes *)
    let cp = G.fresh g "lzc_cp" in
    G.mov g G.rcx G.rbp;
    G.label g cp;
    G.ldb g G.rax ~base:G.rbx ~index:G.r10 ();
    G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
    G.inc g G.r10;
    G.inc g G.r14;
    G.dec g G.rcx;
    G.jne g cp;
    G.jmp g fl_top;
    G.label g fl_done
  in
  G.label g main;
  (* need pos + 3 <= len *)
  G.mov g G.rax G.r9;
  G.addi g G.rax 3;
  G.cmp g G.rax G.r12;
  G.jcc g Flags.A tail;
  (* rax = 3 bytes at pos, packed *)
  G.ldb g G.rax ~base:G.rbx ~index:G.r9 ();
  G.ldb g G.rdx ~base:G.rbx ~index:G.r9 ~disp:1 ();
  G.shl g G.rdx 8;
  G.orr g G.rax G.rdx;
  G.ldb g G.rdx ~base:G.rbx ~index:G.r9 ~disp:2 ();
  G.shl g G.rdx 16;
  G.orr g G.rax G.rdx;
  G.mov g G.rbp G.rax (* keep packed bytes *);
  (* hash *)
  G.imuli g G.rax 2654435761;
  G.shr g G.rax 17;
  G.andi g G.rax 0x7FFF;
  (* candidate = tbl[h]; tbl[h] = pos+1 *)
  G.ldx g G.r8 ~base:G.r15 ~index:G.rax ();
  G.mov g G.rdx G.r9;
  G.inc g G.rdx;
  G.stx g ~base:G.r15 ~index:G.rax G.rdx ();
  G.cmpi g G.r8 0;
  G.je g advance;
  G.dec g G.r8 (* cand *);
  (* distance check: 1 <= pos - cand <= 0xFFFF *)
  G.mov g G.rdx G.r9;
  G.sub g G.rdx G.r8;
  G.cmpi g G.rdx 0;
  G.jcc g Flags.LE advance;
  G.lii g G.rax 0xFFFF;
  G.cmp g G.rdx G.rax;
  G.jcc g Flags.A advance;
  (* verify: packed bytes at cand equal rbp *)
  G.ldb g G.rax ~base:G.rbx ~index:G.r8 ();
  G.ldb g G.rcx ~base:G.rbx ~index:G.r8 ~disp:1 ();
  G.shl g G.rcx 8;
  G.orr g G.rax G.rcx;
  G.ldb g G.rcx ~base:G.rbx ~index:G.r8 ~disp:2 ();
  G.shl g G.rcx 16;
  G.orr g G.rax G.rcx;
  G.cmp g G.rax G.rbp;
  G.jne g advance;
  (* match found; rdx = distance. flush pending literals first *)
  emit_flush ();
  (* extend match length in rcx (3..255) *)
  G.lii g G.rcx 3;
  let ext = G.fresh g "lzc_ext" in
  let ext_done = G.fresh g "lzc_ext_done" in
  G.label g ext;
  G.cmpi g G.rcx 255;
  G.jcc g Flags.AE ext_done;
  G.mov g G.rax G.r9;
  G.add g G.rax G.rcx;
  G.cmp g G.rax G.r12;
  G.jcc g Flags.AE ext_done;
  (* src[cand+rcx] == src[pos+rcx]? *)
  G.mov g G.rbp G.r8;
  G.add g G.rbp G.rcx;
  G.ldb g G.rbp ~base:G.rbx ~index:G.rbp ();
  G.push g G.rdx;
  G.mov g G.rdx G.r9;
  G.add g G.rdx G.rcx;
  G.ldb g G.rdx ~base:G.rbx ~index:G.rdx ();
  G.cmp g G.rbp G.rdx;
  G.pop g G.rdx;
  G.jne g ext_done;
  G.inc g G.rcx;
  G.jmp g ext;
  G.label g ext_done;
  (* emit match token: 0x01, dist lo, dist hi, len *)
  G.lii g G.rax 1;
  G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
  G.inc g G.r14;
  G.stb g ~base:G.r13 ~index:G.r14 G.rdx ();
  G.inc g G.r14;
  G.mov g G.rax G.rdx;
  G.shr g G.rax 8;
  G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
  G.inc g G.r14;
  G.stb g ~base:G.r13 ~index:G.r14 G.rcx ();
  G.inc g G.r14;
  (* pos += len; lit_start = pos *)
  G.add g G.r9 G.rcx;
  G.mov g G.r10 G.r9;
  G.jmp g main;
  G.label g advance;
  G.inc g G.r9;
  G.jmp g main;
  G.label g tail;
  (* flush trailing literals [lit_start, len) *)
  G.mov g G.r9 G.r12;
  emit_flush ();
  G.mov g G.rax G.r14;
  List.iter (G.pop g) [ G.rbp; G.r15; G.r14; G.r13; G.r12; G.rbx ];
  G.ret g

(** lz_decompress(rdi=src, rsi=srclen, rdx=dst) -> rax = outlen. *)
let emit_decompress_fn g =
  G.label g "lz_decompress";
  List.iter (G.push g) [ G.rbx; G.r12; G.r13; G.r14 ];
  G.mov g G.rbx G.rdi (* src *);
  G.mov g G.r12 G.rsi (* srclen *);
  G.mov g G.r13 G.rdx (* dst *);
  G.xor g G.r14 G.r14 (* out *);
  G.xor g G.r9 G.r9 (* in *);
  let top = G.fresh g "lzd_top" in
  let fin = G.fresh g "lzd_fin" in
  let matcht = G.fresh g "lzd_match" in
  G.label g top;
  G.cmp g G.r9 G.r12;
  G.jcc g Flags.AE fin;
  G.ldb g G.rax ~base:G.rbx ~index:G.r9 ();
  G.inc g G.r9;
  G.cmpi g G.rax 0;
  G.jne g matcht;
  (* literal run: len, bytes *)
  G.ldb g G.rcx ~base:G.rbx ~index:G.r9 ();
  G.inc g G.r9;
  let lit = G.fresh g "lzd_lit" in
  G.label g lit;
  G.ldb g G.rax ~base:G.rbx ~index:G.r9 ();
  G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
  G.inc g G.r9;
  G.inc g G.r14;
  G.dec g G.rcx;
  G.jne g lit;
  G.jmp g top;
  G.label g matcht;
  (* offset lo/hi, len *)
  G.ldb g G.rdx ~base:G.rbx ~index:G.r9 ();
  G.ldb g G.rax ~base:G.rbx ~index:G.r9 ~disp:1 ();
  G.shl g G.rax 8;
  G.orr g G.rdx G.rax;
  G.ldb g G.rcx ~base:G.rbx ~index:G.r9 ~disp:2 ();
  G.addi g G.r9 3;
  (* copy rcx bytes from dst[out-off], overlap-safe byte order *)
  G.mov g G.r8 G.r14;
  G.sub g G.r8 G.rdx;
  let mcp = G.fresh g "lzd_mcp" in
  G.label g mcp;
  G.ldb g G.rax ~base:G.r13 ~index:G.r8 ();
  G.stb g ~base:G.r13 ~index:G.r14 G.rax ();
  G.inc g G.r8;
  G.inc g G.r14;
  G.dec g G.rcx;
  G.jne g mcp;
  G.jmp g top;
  G.label g fin;
  G.mov g G.rax G.r14;
  List.iter (G.pop g) [ G.r14; G.r13; G.r12; G.rbx ];
  G.ret g

(** Host-side oracles (same format, for cross-validation). *)
module Oracle = struct
  let compress (src : string) : string =
    let n = String.length src in
    let out = Buffer.create (n / 2) in
    let tbl = Array.make 32768 0 in
    let flush lit_start upto =
      let pos = ref lit_start in
      while !pos < upto do
        let chunk = min 255 (upto - !pos) in
        Buffer.add_char out '\x00';
        Buffer.add_char out (Char.chr chunk);
        Buffer.add_substring out src !pos chunk;
        pos := !pos + chunk
      done
    in
    let pos = ref 0 in
    let lit_start = ref 0 in
    while !pos + 3 <= n do
      let packed =
        Char.code src.[!pos]
        lor (Char.code src.[!pos + 1] lsl 8)
        lor (Char.code src.[!pos + 2] lsl 16)
      in
      let h =
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical
                (Int64.mul (Int64.of_int packed) 2654435761L)
                17)
             0x7FFFL)
      in
      let cand = tbl.(h) in
      tbl.(h) <- !pos + 1;
      let dist = if cand > 0 then !pos - (cand - 1) else 0 in
      if
        cand > 0 && dist >= 1 && dist <= 0xFFFF
        && src.[cand - 1] = src.[!pos]
        && src.[cand] = src.[!pos + 1]
        && src.[cand + 1] = src.[!pos + 2]
      then begin
        flush !lit_start !pos;
        let c = cand - 1 in
        let len = ref 3 in
        while !len < 255 && !pos + !len < n && src.[c + !len] = src.[!pos + !len] do
          incr len
        done;
        Buffer.add_char out '\x01';
        Buffer.add_char out (Char.chr (dist land 0xFF));
        Buffer.add_char out (Char.chr ((dist lsr 8) land 0xFF));
        Buffer.add_char out (Char.chr !len);
        pos := !pos + !len;
        lit_start := !pos
      end
      else incr pos
    done;
    flush !lit_start n;
    Buffer.contents out

  let decompress (src : string) : string =
    let out = Buffer.create (String.length src * 2) in
    let i = ref 0 in
    let n = String.length src in
    while !i < n do
      let tok = Char.code src.[!i] in
      incr i;
      if tok = 0 then begin
        let len = Char.code src.[!i] in
        incr i;
        Buffer.add_substring out src !i len;
        i := !i + len
      end
      else begin
        let off = Char.code src.[!i] lor (Char.code src.[!i + 1] lsl 8) in
        let len = Char.code src.[!i + 2] in
        i := !i + 3;
        for _ = 1 to len do
          Buffer.add_char out (Buffer.nth out (Buffer.length out - off))
        done
      end
    done;
    Buffer.contents out
end
