(* Guest-code library validation: the RC4 and LZ guest assembly routines
   must agree byte-for-byte with their OCaml oracles, on both the
   functional and the out-of-order cores; plus hypervisor-layer tests
   (ptlcall parsing, checkpoints, cosim validation). *)

open Ptl_util
module G = Ptl_workloads.Gasm
module Crypto = Ptl_workloads.Crypto
module Lz = Ptl_workloads.Lz
module Machine = Ptl_arch.Machine
module Seqcore = Ptl_arch.Seqcore
module Context = Ptl_arch.Context
module Ptlcall = Ptl_hyper.Ptlcall
module Checkpoint = Ptl_hyper.Checkpoint
module Cosim = Ptl_hyper.Cosim
module Ooo = Ptl_ooo.Ooo_core
module Config = Ptl_ooo.Config

let heap = Machine.heap_base

(* Build a bare-metal machine around a program, pre-writing [inputs]
   (vaddr, string) into guest memory, run to hlt, return the machine. *)
let run_guest ?(on = `Seq) g inputs =
  let img = G.assemble g in
  let m = Machine.create ~heap_pages:192 img in
  List.iter
    (fun (vaddr, s) ->
      String.iteri
        (fun i c ->
          Machine.write_mem m
            ~vaddr:(Int64.add vaddr (Int64.of_int i))
            ~size:W64.B1 ~value:(Int64.of_int (Char.code c)))
        s)
    inputs;
  (match on with
  | `Seq -> ignore (Machine.run_seq ~max_insns:20_000_000 m)
  | `Ooo ->
    let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
    ignore (Ooo.run core ~max_cycles:60_000_000));
  m

let read_guest m ~vaddr n =
  String.init n (fun i ->
      Char.chr
        (Int64.to_int
           (Machine.read_mem m ~vaddr:(Int64.add vaddr (Int64.of_int i)) ~size:W64.B1)))

let test_rc4_guest_matches_oracle () =
  let key = "c2s-tunnel-key" in
  let plain = String.init 300 (fun i -> Char.chr (i * 13 land 0xFF)) in
  let g = G.create () in
  G.jmp g "main";
  Crypto.emit_init_fn g;
  Crypto.emit_crypt_fn g;
  G.label g "main";
  (* state at heap, key at heap+0x1000, buf at heap+0x2000 *)
  G.li g G.rdi heap;
  G.li g G.rsi (Int64.add heap 0x1000L);
  G.lii g G.rdx (String.length key);
  G.call g "rc4_init";
  G.li g G.rdi heap;
  G.li g G.rsi (Int64.add heap 0x2000L);
  G.lii g G.rdx (String.length plain);
  G.call g "rc4_crypt";
  G.ins g Ptl_isa.Insn.Hlt;
  let check on =
    let m =
      run_guest ~on g
        [ (Int64.add heap 0x1000L, key); (Int64.add heap 0x2000L, plain) ]
    in
    let guest_cipher = read_guest m ~vaddr:(Int64.add heap 0x2000L) (String.length plain) in
    let oracle = Crypto.Oracle.init key in
    let expect = Crypto.Oracle.crypt_string oracle plain in
    Alcotest.(check string) "ciphertext" expect guest_cipher
  in
  check `Seq;
  check `Ooo

let test_rc4_roundtrip () =
  (* encrypting twice with the same key restores the plaintext *)
  let key = "k" in
  let plain = "the quick brown fox jumps over the lazy dog" in
  let o1 = Crypto.Oracle.init key in
  let c = Crypto.Oracle.crypt_string o1 plain in
  let o2 = Crypto.Oracle.init key in
  Alcotest.(check string) "roundtrip" plain (Crypto.Oracle.crypt_string o2 c)

let sample_text =
  "abcabcabcabc hello hello hello compression compression works works works \
   the quick brown fox the quick brown fox 0123456789 0123456789 xyz"

let test_lz_oracle_roundtrip () =
  List.iter
    (fun s ->
      let c = Lz.Oracle.compress s in
      Alcotest.(check string) "roundtrip" s (Lz.Oracle.decompress c))
    [ ""; "a"; "ab"; "abc"; sample_text; String.make 1000 'x';
      String.init 2000 (fun i -> Char.chr (i * 31 land 0xFF)) ];
  (* repetitive input must actually compress *)
  let c = Lz.Oracle.compress (String.make 1000 'x') in
  Alcotest.(check bool) "compresses" true (String.length c < 100)

let prop_lz_oracle =
  QCheck.Test.make ~name:"lz oracle roundtrips random strings" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 3000))
    (fun s -> Lz.Oracle.decompress (Lz.Oracle.compress s) = s)

let test_lz_guest_compress () =
  let src = sample_text ^ sample_text ^ sample_text in
  let g = G.create () in
  G.jmp g "main";
  Lz.emit_compress_fn g;
  G.label g "main";
  (* src at heap, dst at heap+0x4000, tbl at heap+0x10000 (zeroed pages) *)
  G.li g G.rdi heap;
  G.lii g G.rsi (String.length src);
  G.li g G.rdx (Int64.add heap 0x4000L);
  G.li g G.rcx (Int64.add heap 0x10000L);
  G.call g "lz_compress";
  (* store outlen at heap+0x3000 *)
  G.li g G.rbx (Int64.add heap 0x3000L);
  G.st g ~base:G.rbx G.rax ();
  G.ins g Ptl_isa.Insn.Hlt;
  let check on =
    let m = run_guest ~on g [ (heap, src) ] in
    let outlen =
      Int64.to_int (Machine.read_mem m ~vaddr:(Int64.add heap 0x3000L) ~size:W64.B8)
    in
    Alcotest.(check bool) "compressed smaller" true (outlen < String.length src);
    let compressed = read_guest m ~vaddr:(Int64.add heap 0x4000L) outlen in
    Alcotest.(check string) "decompresses to src" src (Lz.Oracle.decompress compressed)
  in
  check `Seq;
  check `Ooo

let test_lz_guest_decompress () =
  let src = sample_text ^ String.make 500 'q' ^ sample_text in
  let compressed = Lz.Oracle.compress src in
  let g = G.create () in
  G.jmp g "main";
  Lz.emit_decompress_fn g;
  G.label g "main";
  G.li g G.rdi heap;
  G.lii g G.rsi (String.length compressed);
  G.li g G.rdx (Int64.add heap 0x4000L);
  G.call g "lz_decompress";
  G.li g G.rbx (Int64.add heap 0x3000L);
  G.st g ~base:G.rbx G.rax ();
  G.ins g Ptl_isa.Insn.Hlt;
  let m = run_guest g [ (heap, compressed) ] in
  let outlen =
    Int64.to_int (Machine.read_mem m ~vaddr:(Int64.add heap 0x3000L) ~size:W64.B8)
  in
  Alcotest.(check int) "length" (String.length src) outlen;
  Alcotest.(check string) "content" src (read_guest m ~vaddr:(Int64.add heap 0x4000L) outlen)

let test_checksum_guest () =
  let data = String.init 200 (fun i -> Char.chr (i land 0xFF)) in
  let g = G.create () in
  G.jmp g "main";
  G.emit_checksum_fn g;
  G.label g "main";
  G.li g G.rdi heap;
  G.lii g G.rsi (String.length data);
  G.call g "checksum";
  G.mov g G.rbx G.rax;
  G.ins g Ptl_isa.Insn.Hlt;
  let m = run_guest g [ (heap, data) ] in
  (* oracle *)
  let a = ref 0 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) land 0xFFFF;
      b := (!b + !a) land 0xFFFF)
    data;
  let expect = Int64.of_int ((!b lsl 16) lor !a) in
  Alcotest.(check int64) "checksum" expect (Machine.gpr m G.rbx)

(* ---- hypervisor layer ---- *)

let test_ptlcall_parse () =
  let cmds = Ptlcall.parse "-core smt -run -stopinsns 10m : -native" in
  (match cmds with
  | [ Ptlcall.Set_core "smt"; Ptlcall.Run [ Ptlcall.Stop_insns 10_000_000 ]; Ptlcall.Native ] -> ()
  | _ ->
    Alcotest.fail
      (String.concat "; " (List.map Ptlcall.command_to_string cmds)));
  (match Ptlcall.parse "-run -stopcycles 500k -stopmarker 3 : -kill" with
  | [ Ptlcall.Run [ Ptlcall.Stop_cycles 500_000; Ptlcall.Stop_marker 3 ]; Ptlcall.Kill ] -> ()
  | _ -> Alcotest.fail "second parse");
  match Ptlcall.parse "-bogus" with
  | exception Ptlcall.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let counting_image () =
  let g = G.create () in
  G.lii g G.rax 0;
  G.lii g G.rcx 50;
  G.label g "top";
  G.add g G.rax G.rcx;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Ptl_isa.Insn.Hlt;
  G.assemble g

let test_checkpoint_restore () =
  let img = counting_image () in
  let m = Machine.create img in
  let ck = Checkpoint.capture m.Machine.env m.Machine.ctx in
  ignore (Machine.run_seq m);
  let after = Machine.gpr m G.rax in
  Alcotest.(check int64) "ran" 1275L after;
  Checkpoint.restore ck m.Machine.env m.Machine.ctx;
  Alcotest.(check int64) "state restored" 0L (Machine.gpr m G.rax);
  Alcotest.(check bool) "running again" true m.Machine.ctx.Context.running;
  (* deterministic replay: same result again *)
  ignore (Machine.run_seq m);
  Alcotest.(check int64) "replay identical" 1275L (Machine.gpr m G.rax)

let test_checkpoint_rewinds_memory_and_clock () =
  (* memory written, an interrupt raised and the clock moved after a
     capture: [diff] sees the drift, [restore] undoes all of it *)
  let m = Machine.create (counting_image ()) in
  let env = m.Machine.env and ctx = m.Machine.ctx in
  let mem = env.Ptl_arch.Env.mem in
  let before = Ptl_mem.Phys_mem.read_string mem 0x5000 13 in
  let ck = Checkpoint.capture env ctx in
  env.Ptl_arch.Env.cycle <- 2500;
  Ptl_mem.Phys_mem.write_string mem 0x5000 "hello";
  Ptl_mem.Phys_mem.write_string mem 0x5008 "world";
  Context.raise_irq ctx 33;
  Alcotest.(check bool) "diff sees the drift" true
    (Checkpoint.diff ck env ctx <> []);
  Checkpoint.restore ck env ctx;
  Alcotest.(check (list string)) "restored exactly" [] (Checkpoint.diff ck env ctx);
  Alcotest.(check int) "clock rewound" 0 env.Ptl_arch.Env.cycle;
  Alcotest.(check string) "memory rewound" before
    (Ptl_mem.Phys_mem.read_string mem 0x5000 13);
  Alcotest.(check bool) "no interrupt pending" false (Context.has_pending_irq ctx)

let test_cosim_validate_agrees () =
  let img = counting_image () in
  match Cosim.validate ~check_every:20 ~max_insns:500 img with
  | Cosim.Agree n -> Alcotest.(check bool) "compared some insns" true (n > 0)
  | Cosim.Diverged { after_insns; diffs; _ } ->
    Alcotest.fail
      (Printf.sprintf "diverged after %d: %s" after_insns (String.concat "; " diffs))

let suite =
  [
    Alcotest.test_case "rc4 guest = oracle (seq+ooo)" `Quick test_rc4_guest_matches_oracle;
    Alcotest.test_case "rc4 roundtrip" `Quick test_rc4_roundtrip;
    Alcotest.test_case "lz oracle roundtrip" `Quick test_lz_oracle_roundtrip;
    Test_seed.to_alcotest prop_lz_oracle;
    Alcotest.test_case "lz guest compress (seq+ooo)" `Quick test_lz_guest_compress;
    Alcotest.test_case "lz guest decompress" `Quick test_lz_guest_decompress;
    Alcotest.test_case "checksum guest" `Quick test_checksum_guest;
    Alcotest.test_case "ptlcall parse" `Quick test_ptlcall_parse;
    Alcotest.test_case "checkpoint capture/restore/replay" `Quick test_checkpoint_restore;
    Alcotest.test_case "checkpoint rewinds memory and clock" `Quick
      test_checkpoint_rewinds_memory_and_clock;
    Alcotest.test_case "cosim validate" `Quick test_cosim_validate_agrees;
  ]
