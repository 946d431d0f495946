(** The rsync-over-ssh benchmark programs (§5 of the paper), as real guest
    code: four processes exactly like the original —

    - [rsync_client]: builds the file list (readdir/stat), runs the rsync
      delta algorithm (rolling checksums per 1 KiB block), compresses
      changed blocks (LZ-lite = the gzip stage) and ships them through its
      ssh tunnel;
    - [ssh_client]: encrypts/decrypts the byte stream (RC4) between the
      client's pipes and a loopback TCP connection to port 22;
    - [sshd]: accepts the connection, spawns the server, and relays with
      the mirrored cipher directions;
    - [rsync_server]: answers per-file block checksums, decompresses
      received blocks and reconstructs the destination files.

    All traffic crosses the kernel's pipes and the TCP-lite loopback (with
    MTU segmentation and per-packet latency), so the full-system effects
    of Figure 2 — kernel time, idle time waiting on I/O, page-ins — are
    genuinely simulated.

    Wire protocol (framed, strictly request/response at file granularity):
    {v
      frame       := [u32 total][u8 op][payload]      (client -> server)
      OP_FILE(1)  := [u8 namelen][name][u32 newsize]
         reply    := [u32 len][u32 nblocks][u64 csum xnblocks]
      OP_BLOCK(2) := [u32 index][u16 rawlen][u16 complen][bytes]
      OP_DONE3(3) := file done (write reconstruction)
      OP_QUIT(4)  := end of run;  reply := [u32 4][u32 0]
    v} *)

module G = Gasm
module Abi = Ptl_kernel.Abi
module Flags = Ptl_isa.Flags

let block = 1024

(* user heap layout (offsets from Abi.user_heap_base) *)
let off_fbuf = 0x00000 (* 64 KiB file / reconstruction buffer *)
let off_cbuf = 0x10000 (* compressed block *)
let off_csums = 0x11000 (* remote checksums, u64 each *)
let off_msg = 0x11400 (* frame assembly / dirents *)
let off_names = 0x12400 (* file list arena, stride 64 *)
let off_path = 0x16400 (* path assembly *)
let off_rc4_up = 0x16500
let off_rc4_down = 0x16700
let off_iobuf = 0x16a00 (* relay buffer *)
let off_tbl = 0x20000 (* LZ hash table, 256 KiB (0x20000..0x60000) *)

let op_file = 1
let op_block = 2
let op_filedone = 3
let op_quit = 4

(* rbp <- heap base; every program keeps it there *)
let load_heap g = G.li g G.rbp Abi.user_heap_base

(* lea reg <- rbp + off *)
let heap_addr g reg off =
  G.mov g reg G.rbp;
  G.addi g reg off

(* ---------------- rsync client ---------------- *)

(* client fd conventions: pipes made before spawn: C=(0r,1w), D=(2r,3w);
   the client keeps 1 (to ssh) and 2 (from ssh) and closes 0 and 3. *)
let client_out = 1
let client_in = 2

let emit_client_libs g =
  G.emit_memcpy_fn g;
  G.emit_memset_fn g;
  G.emit_read_full_fn g;
  G.emit_write_full_fn g;
  G.emit_checksum_fn g;
  G.emit_strlen_fn g;
  Lz.emit_compress_fn g

(* write_full(out, msg, 4 + framelen); frame length word already at msg *)
let emit_send_frame g =
  G.label g "send_frame";
  heap_addr g G.rsi off_msg;
  G.ld32 g G.rdx ~base:G.rsi ();
  G.addi g G.rdx 4;
  G.lii g G.rdi client_out;
  G.call g "write_full";
  G.ret g

(* read a reply frame into msg: [u32 len][payload]; returns len in rax.
   Preserves rbx (the caller's file-entry pointer). *)
let emit_read_reply g =
  G.label g "read_reply";
  G.push g G.rbx;
  G.lii g G.rdi client_in;
  heap_addr g G.rsi off_msg;
  G.lii g G.rdx 4;
  G.call g "read_full";
  heap_addr g G.rsi off_msg;
  G.ld32 g G.rbx ~base:G.rsi ();
  G.lii g G.rdi client_in;
  heap_addr g G.rsi off_msg;
  G.addi g G.rsi 4;
  G.mov g G.rdx G.rbx;
  G.call g "read_full";
  G.mov g G.rax G.rbx;
  G.pop g G.rbx;
  G.ret g

(* ---------------- rsync server ---------------- *)

(* server fds (inherited from sshd): 2 = from sshd, 5 = to sshd *)
let server_in = 2
let server_out = 5

let rsync_server () =
  let g = G.create () in
  G.jmp g "main";
  G.emit_memcpy_fn g;
  G.emit_read_full_fn g;
  G.emit_write_full_fn g;
  G.emit_checksum_fn g;
  Lz.emit_decompress_fn g;
  (* read one frame into msg (+4 offset payload); rax = payload len, or
     negative on EOF *)
  G.label g "read_frame";
  G.lii g G.rdi server_in;
  heap_addr g G.rsi off_msg;
  G.lii g G.rdx 4;
  G.call g "read_full";
  G.cmpi g G.rax 4;
  G.jne g "rf_eof";
  heap_addr g G.rsi off_msg;
  G.ld32 g G.rbx ~base:G.rsi ();
  G.lii g G.rdi server_in;
  heap_addr g G.rsi off_msg;
  G.addi g G.rsi 4;
  G.mov g G.rdx G.rbx;
  G.call g "read_full";
  G.mov g G.rax G.rbx;
  G.ret g;
  G.label g "rf_eof";
  G.lii g G.rax (-1);
  G.ret g;

  G.label g "main";
  load_heap g;
  (* close unused inherited fds *)
  List.iter
    (fun fd ->
      G.lii g G.rdi fd;
      G.syscall g Abi.sys_close)
    [ 0; 1; 3; 4 ];
  G.xor g G.r12 G.r12 (* old size *);
  G.xor g G.r13 G.r13 (* new size *);
  G.label g "srv_top";
  G.call g "read_frame";
  G.cmpi g G.rax 0;
  G.jcc g Flags.LE "srv_exit";
  heap_addr g G.rsi off_msg;
  G.ldb g G.rax ~base:G.rsi ~disp:4 ();
  G.cmpi g G.rax op_file;
  G.je g "srv_file";
  G.cmpi g G.rax op_block;
  G.je g "srv_block";
  G.cmpi g G.rax op_filedone;
  G.je g "srv_filedone";
  G.cmpi g G.rax op_quit;
  G.je g "srv_quit";
  G.jmp g "srv_exit";

  (* ---- OP_FILE ---- *)
  G.label g "srv_file";
  heap_addr g G.rsi off_msg;
  G.ldb g G.rbx ~base:G.rsi ~disp:5 () (* namelen *);
  (* newsize (u32 after the name) *)
  G.mov g G.rax G.rsi;
  G.add g G.rax G.rbx;
  G.ld32 g G.r13 ~base:G.rax ~disp:6 ();
  (* path = "dst/" ^ name *)
  heap_addr g G.rdi off_path;
  G.lii g G.rdx 100 (* 'd' *);
  G.stb g ~base:G.rdi G.rdx ();
  G.lii g G.rdx 115 (* 's' *);
  G.stb g ~base:G.rdi ~disp:1 G.rdx ();
  G.lii g G.rdx 116 (* 't' *);
  G.stb g ~base:G.rdi ~disp:2 G.rdx ();
  G.lii g G.rdx 47 (* '/' *);
  G.stb g ~base:G.rdi ~disp:3 G.rdx ();
  G.addi g G.rdi 4;
  heap_addr g G.rsi off_msg;
  G.addi g G.rsi 6;
  G.mov g G.rdx G.rbx;
  G.call g "memcpy";
  heap_addr g G.rdi off_path;
  G.add g G.rdi G.rbx;
  G.xor g G.rdx G.rdx;
  G.stb g ~base:G.rdi ~disp:4 G.rdx () (* NUL *);
  (* old size via stat (into csums scratch) *)
  G.xor g G.r12 G.r12;
  heap_addr g G.rdi off_path;
  heap_addr g G.rsi off_csums;
  G.syscall g Abi.sys_stat;
  G.cmpi g G.rax 0;
  G.jne g "no_old";
  heap_addr g G.rsi off_csums;
  G.ld g G.r12 ~base:G.rsi ();
  (* read old content into fbuf *)
  heap_addr g G.rdi off_path;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_open;
  G.push g G.rax;
  G.mov g G.rdi G.rax;
  heap_addr g G.rsi off_fbuf;
  G.mov g G.rdx G.r12;
  G.call g "read_full";
  G.pop g G.rdi;
  G.syscall g Abi.sys_close;
  G.label g "no_old";
  (* build the checksum reply: nblocks over the OLD content *)
  G.mov g G.rbx G.r12;
  G.addi g G.rbx (block - 1);
  G.shr g G.rbx 10 (* nblocks *);
  heap_addr g G.rdi off_msg;
  G.mov g G.rdx G.rbx;
  G.shl g G.rdx 3;
  G.addi g G.rdx 4;
  G.st32 g ~base:G.rdi G.rdx () (* frame len *);
  G.st32 g ~base:G.rdi ~disp:4 G.rbx ();
  (* per-block checksums; r14 = block idx *)
  G.xor g G.r14 G.r14;
  G.label g "ck_top";
  G.cmp g G.r14 G.rbx;
  G.jcc g Flags.AE "ck_done";
  G.mov g G.rax G.r14;
  G.shl g G.rax 10;
  G.mov g G.rdx G.r12;
  G.sub g G.rdx G.rax;
  G.cmpi g G.rdx block;
  G.jcc g Flags.BE "sck_ok";
  G.lii g G.rdx block;
  G.label g "sck_ok";
  heap_addr g G.rdi off_fbuf;
  G.add g G.rdi G.rax;
  G.mov g G.rsi G.rdx;
  G.call g "checksum";
  (* store at msg+8 + idx*8 *)
  G.mov g G.rdx G.r14;
  G.shl g G.rdx 3;
  G.add g G.rdx G.rbp;
  G.st g ~base:G.rdx ~disp:(off_msg + 8) G.rax ();
  G.inc g G.r14;
  G.jmp g "ck_top";
  G.label g "ck_done";
  (* send the reply *)
  G.lii g G.rdi server_out;
  heap_addr g G.rsi off_msg;
  G.mov g G.rdx G.rbx;
  G.shl g G.rdx 3;
  G.addi g G.rdx 8;
  G.call g "write_full";
  G.jmp g "srv_top";

  (* ---- OP_BLOCK ---- *)
  G.label g "srv_block";
  heap_addr g G.rsi off_msg;
  G.ld32 g G.rbx ~base:G.rsi ~disp:5 () (* idx *);
  G.ld16 g G.rdx ~base:G.rsi ~disp:11 () (* complen *);
  (* decompress msg+13 into fbuf + idx*1024 *)
  G.mov g G.rdi G.rsi;
  G.addi g G.rdi 13;
  G.mov g G.rsi G.rdx;
  G.mov g G.rdx G.rbx;
  G.shl g G.rdx 10;
  G.add g G.rdx G.rbp;
  G.addi g G.rdx off_fbuf;
  G.call g "lz_decompress";
  G.jmp g "srv_top";

  (* ---- OP_FILEDONE: write the reconstruction ---- *)
  G.label g "srv_filedone";
  heap_addr g G.rdi off_path;
  G.syscall g Abi.sys_creat;
  G.push g G.rax;
  G.mov g G.rdi G.rax;
  heap_addr g G.rsi off_fbuf;
  G.mov g G.rdx G.r13;
  G.call g "write_full";
  G.pop g G.rdi;
  G.syscall g Abi.sys_close;
  G.jmp g "srv_top";

  (* ---- OP_QUIT ---- *)
  G.label g "srv_quit";
  heap_addr g G.rdi off_msg;
  G.lii g G.rdx 4;
  G.st32 g ~base:G.rdi G.rdx ();
  G.xor g G.rdx G.rdx;
  G.st32 g ~base:G.rdi ~disp:4 G.rdx ();
  G.lii g G.rdi server_out;
  heap_addr g G.rsi off_msg;
  G.lii g G.rdx 8;
  G.call g "write_full";
  G.label g "srv_exit";
  G.sys_exit g 0;
  G.assemble g

(* ---------------- ssh relays ---------------- *)

(* The bidirectional encrypting pump shared by ssh_client and sshd.
   in_fd/out_fd are immediates; the socket fd is in r12. *)
let emit_relay g ~in_fd ~out_fd =
  G.label g "relay";
  G.label g "rl_top";
  G.lii g G.rdi in_fd;
  G.mov g G.rsi G.r12;
  G.syscall g Abi.sys_poll2;
  G.cmpi g G.rax 0;
  G.jne g "rl_sock";
  (* pipe side readable *)
  G.lii g G.rdi in_fd;
  heap_addr g G.rsi off_iobuf;
  G.lii g G.rdx 1024;
  G.syscall g Abi.sys_read;
  G.cmpi g G.rax 0;
  G.jcc g Flags.LE "rl_done";
  G.push g G.rax;
  heap_addr g G.rdi off_rc4_up;
  heap_addr g G.rsi off_iobuf;
  G.mov g G.rdx G.rax;
  G.call g "rc4_crypt";
  G.pop g G.rdx;
  G.mov g G.rdi G.r12;
  heap_addr g G.rsi off_iobuf;
  G.call g "write_full";
  G.jmp g "rl_top";
  G.label g "rl_sock";
  G.mov g G.rdi G.r12;
  heap_addr g G.rsi off_iobuf;
  G.lii g G.rdx 1024;
  G.syscall g Abi.sys_read;
  G.cmpi g G.rax 0;
  G.jcc g Flags.LE "rl_done";
  G.push g G.rax;
  heap_addr g G.rdi off_rc4_down;
  heap_addr g G.rsi off_iobuf;
  G.mov g G.rdx G.rax;
  G.call g "rc4_crypt";
  G.pop g G.rdx;
  G.lii g G.rdi out_fd;
  heap_addr g G.rsi off_iobuf;
  G.call g "write_full";
  G.jmp g "rl_top";
  G.label g "rl_done";
  G.ret g

let init_rc4 g ~up_key ~down_key =
  let ku = G.cstring g up_key in
  let kd = G.cstring g down_key in
  heap_addr g G.rdi off_rc4_up;
  G.la g G.rsi ku;
  G.lii g G.rdx (String.length up_key);
  G.call g "rc4_init";
  heap_addr g G.rdi off_rc4_down;
  G.la g G.rsi kd;
  G.lii g G.rdx (String.length down_key);
  G.call g "rc4_init"

(* ssh client: inherits pipes 0..3; pumps 0 -> socket (encrypt c2s) and
   socket -> 3 (decrypt s2c). *)
let ssh_client () =
  let g = G.create () in
  G.jmp g "main";
  Crypto.emit_init_fn g;
  Crypto.emit_crypt_fn g;
  G.emit_write_full_fn g;
  emit_relay g ~in_fd:0 ~out_fd:3;
  G.label g "main";
  load_heap g;
  (* close the ends the client kept *)
  G.lii g G.rdi 1;
  G.syscall g Abi.sys_close;
  G.lii g G.rdi 2;
  G.syscall g Abi.sys_close;
  G.syscall g Abi.sys_socket;
  G.mov g G.r12 G.rax;
  (* connect to sshd on port 22, retrying until it listens *)
  G.label g "conn_retry";
  G.mov g G.rdi G.r12;
  G.lii g G.rsi 22;
  G.syscall g Abi.sys_connect;
  G.cmpi g G.rax 0;
  G.je g "connected";
  G.lii g G.rdi 20_000;
  G.syscall g Abi.sys_sleep;
  G.jmp g "conn_retry";
  G.label g "connected";
  init_rc4 g ~up_key:"c2s-tunnel-key" ~down_key:"s2c-tunnel-key";
  G.call g "relay";
  G.sys_exit g 0;
  G.assemble g

(* sshd: listens on 22, accepts, spawns the server over fresh pipes, and
   pumps socket -> pipe (decrypt c2s) and pipe -> socket (encrypt s2c).
   fd map after setup: 0 = listener, 1 = connection, 2/3 = pipe to server,
   4/5 = pipe from server. *)
let sshd () =
  let g = G.create () in
  G.jmp g "main";
  Crypto.emit_init_fn g;
  Crypto.emit_crypt_fn g;
  G.emit_write_full_fn g;
  (* relay with swapped cipher roles: in = pipe 4 encrypted with up (s2c),
     socket decrypted with down (c2s) *)
  emit_relay g ~in_fd:4 ~out_fd:3;
  G.label g "main";
  load_heap g;
  G.syscall g Abi.sys_socket;
  G.mov g G.rdi G.rax;
  G.lii g G.rsi 22;
  G.syscall g Abi.sys_listen;
  G.lii g G.rdi 0;
  G.syscall g Abi.sys_accept;
  G.mov g G.r12 G.rax (* connection *);
  (* pipes to/from the rsync server *)
  heap_addr g G.rdi off_msg;
  G.syscall g Abi.sys_pipe (* fds 2,3 *);
  heap_addr g G.rdi off_msg;
  G.addi g G.rdi 8;
  G.syscall g Abi.sys_pipe (* fds 4,5 *);
  (* spawn the server: it reads 2, writes 5 *)
  let srv = G.cstring g "rsync_server" in
  G.la g G.rdi srv;
  G.lii g G.rsi (2 lor (5 lsl 8));
  G.syscall g Abi.sys_spawn;
  (* keep 3 (write to server) and 4 (read from server) *)
  G.lii g G.rdi 2;
  G.syscall g Abi.sys_close;
  G.lii g G.rdi 5;
  G.syscall g Abi.sys_close;
  init_rc4 g ~up_key:"s2c-tunnel-key" ~down_key:"c2s-tunnel-key";
  G.call g "relay";
  G.sys_exit g 0;
  G.assemble g

(* init: orchestrates the whole benchmark like the paper's modified
   /sbin/init script: start sshd, start the client (which plays rsync +
   ssh), wait, then terminate the domain (ptlctl -kill analogue). *)
let init_prog ?(pre_spawn_marker = true) () =
  let g = G.create () in
  G.jmp g "main";
  G.label g "main";
  if pre_spawn_marker then G.sys_marker g 0;
  let sshd_name = G.cstring g "sshd" in
  G.la g G.rdi sshd_name;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_spawn;
  (* give sshd a chance to listen before the tunnel dials *)
  G.lii g G.rdi 100_000;
  G.syscall g Abi.sys_sleep;
  let client_name = G.cstring g "rsync_client" in
  G.la g G.rdi client_name;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_spawn;
  G.mov g G.r12 G.rax;
  G.mov g G.rdi G.r12;
  G.syscall g Abi.sys_waitpid;
  (* phase (g): shutdown; stop the domain *)
  G.sys_marker g 999;
  G.sys_exit g 0;
  G.assemble g

(* rsync client: creates its pipes (C = (0,1) to ssh, D = (2,3) back),
   spawns ssh_client, then runs the file-list / delta / transmit loop. *)
let rsync_client_full () =
  let g = G.create () in
  G.jmp g "main";
  emit_client_libs g;
  emit_send_frame g;
  emit_read_reply g;
  G.label g "main";
  load_heap g;
  G.sys_marker g 1;
  (* pipes: C = (0,1) client->ssh, D = (2,3) ssh->client *)
  heap_addr g G.rdi off_msg;
  G.syscall g Abi.sys_pipe;
  heap_addr g G.rdi off_msg;
  G.addi g G.rdi 8;
  G.syscall g Abi.sys_pipe;
  let ssh_name = G.cstring g "ssh_client" in
  G.la g G.rdi ssh_name;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_spawn;
  (* close the ends ssh keeps: C.r (0) and D.w (3) *)
  G.lii g G.rdi 0;
  G.syscall g Abi.sys_close;
  G.lii g G.rdi 3;
  G.syscall g Abi.sys_close;
  G.sys_marker g 2;
  G.jmp g "after_setup";
  G.label g "after_setup";
  (* ---- from here the body matches rsync_client: file list etc. ---- *)
  let dirp = G.cstring g "src/" in
  G.xor g G.r12 G.r12;
  G.label g "list_top";
  G.la g G.rdi dirp;
  G.mov g G.rsi G.r12;
  heap_addr g G.rdx off_msg;
  G.syscall g Abi.sys_readdir;
  G.cmpi g G.rax 0;
  G.jcc g Flags.L "list_done";
  G.mov g G.rbx G.r12;
  G.shl g G.rbx 6;
  G.add g G.rbx G.rbp;
  G.addi g G.rbx off_names;
  heap_addr g G.rsi off_msg;
  G.ld g G.rdx ~base:G.rsi ();
  G.st g ~base:G.rbx G.rdx ();
  G.mov g G.rdx G.rax;
  G.subi g G.rdx 8;
  G.mov g G.rdi G.rbx;
  G.addi g G.rdi 8;
  heap_addr g G.rsi off_msg;
  G.addi g G.rsi 8;
  G.call g "memcpy";
  G.inc g G.r12;
  G.cmpi g G.r12 250;
  G.jne g "list_top";
  G.label g "list_done";
  G.mov g G.r13 G.r12;
  G.sys_marker g 3;
  G.xor g G.r12 G.r12;
  G.label g "file_top";
  G.cmp g G.r12 G.r13;
  G.jcc g Flags.AE "files_done";
  G.mov g G.rbx G.r12;
  G.shl g G.rbx 6;
  G.add g G.rbx G.rbp;
  G.addi g G.rbx off_names;
  G.ld g G.r14 ~base:G.rbx ();
  G.mov g G.rdi G.rbx;
  G.addi g G.rdi 12;
  G.call g "strlen";
  G.push g G.rax;
  heap_addr g G.rdi off_msg;
  G.lii g G.rdx op_file;
  G.stb g ~base:G.rdi ~disp:4 G.rdx ();
  G.stb g ~base:G.rdi ~disp:5 G.rax ();
  G.mov g G.rdx G.rax;
  G.addi g G.rdi 6;
  G.mov g G.rsi G.rbx;
  G.addi g G.rsi 12;
  G.call g "memcpy";
  G.pop g G.rax;
  heap_addr g G.rdi off_msg;
  G.mov g G.rdx G.rdi;
  G.add g G.rdx G.rax;
  G.st32 g ~base:G.rdx ~disp:6 G.r14 ();
  G.mov g G.rdx G.rax;
  G.addi g G.rdx 6;
  G.st32 g ~base:G.rdi G.rdx ();
  G.call g "send_frame";
  G.call g "read_reply";
  heap_addr g G.rsi off_msg;
  G.ld32 g G.r15 ~base:G.rsi ~disp:4 ();
  G.mov g G.rdx G.r15;
  G.shl g G.rdx 3;
  heap_addr g G.rdi off_csums;
  heap_addr g G.rsi off_msg;
  G.addi g G.rsi 8;
  G.call g "memcpy";
  G.mov g G.rdi G.rbx;
  G.addi g G.rdi 8;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_open;
  G.push g G.rax;
  G.mov g G.rdi G.rax;
  heap_addr g G.rsi off_fbuf;
  G.mov g G.rdx G.r14;
  G.call g "read_full";
  G.pop g G.rdi;
  G.syscall g Abi.sys_close;
  (* zero the LZ dictionary once per file (stale entries are verified) *)
  heap_addr g G.rdi off_tbl;
  G.lii g G.rsi 0;
  G.lii g G.rdx Lz.hash_table_size;
  G.call g "memset";
  G.xor g G.rbx G.rbx;
  G.label g "blk_top";
  G.mov g G.rax G.rbx;
  G.shl g G.rax 10;
  G.cmp g G.rax G.r14;
  G.jcc g Flags.AE "blk_done";
  G.mov g G.rdx G.r14;
  G.sub g G.rdx G.rax;
  G.cmpi g G.rdx block;
  G.jcc g Flags.BE "blen_ok";
  G.lii g G.rdx block;
  G.label g "blen_ok";
  G.push g G.rdx;
  heap_addr g G.rdi off_fbuf;
  G.add g G.rdi G.rax;
  G.mov g G.rsi G.rdx;
  G.call g "checksum";
  G.cmp g G.rbx G.r15;
  G.jcc g Flags.AE "must_send";
  G.mov g G.rdx G.rbx;
  G.shl g G.rdx 3;
  G.add g G.rdx G.rbp;
  G.ld g G.rdx ~base:G.rdx ~disp:off_csums ();
  G.cmp g G.rax G.rdx;
  G.jne g "must_send";
  G.pop g G.rdx;
  G.jmp g "blk_next";
  G.label g "must_send";
  G.pop g G.rdx;
  G.push g G.rdx;
  heap_addr g G.rdi off_fbuf;
  G.mov g G.rax G.rbx;
  G.shl g G.rax 10;
  G.add g G.rdi G.rax;
  G.mov g G.rsi G.rdx;
  heap_addr g G.rdx off_cbuf;
  heap_addr g G.rcx off_tbl;
  G.call g "lz_compress";
  G.push g G.rax;
  heap_addr g G.rdi off_msg;
  G.lii g G.rdx op_block;
  G.stb g ~base:G.rdi ~disp:4 G.rdx ();
  G.st32 g ~base:G.rdi ~disp:5 G.rbx ();
  G.ld g G.rdx ~base:G.rsp ~disp:8 ();
  G.st16 g ~base:G.rdi ~disp:9 G.rdx ();
  G.ld g G.rdx ~base:G.rsp ();
  G.st16 g ~base:G.rdi ~disp:11 G.rdx ();
  G.mov g G.rax G.rdx;
  G.addi g G.rax 9;
  G.st32 g ~base:G.rdi G.rax ();
  G.addi g G.rdi 13;
  heap_addr g G.rsi off_cbuf;
  G.call g "memcpy";
  G.call g "send_frame";
  G.pop g G.rax;
  G.pop g G.rax;
  G.label g "blk_next";
  G.inc g G.rbx;
  G.jmp g "blk_top";
  G.label g "blk_done";
  heap_addr g G.rdi off_msg;
  G.lii g G.rdx 1;
  G.st32 g ~base:G.rdi G.rdx ();
  G.lii g G.rdx op_filedone;
  G.stb g ~base:G.rdi ~disp:4 G.rdx ();
  G.call g "send_frame";
  G.inc g G.r12;
  G.jmp g "file_top";
  G.label g "files_done";
  G.sys_marker g 5;
  heap_addr g G.rdi off_msg;
  G.lii g G.rdx 1;
  G.st32 g ~base:G.rdi G.rdx ();
  G.lii g G.rdx op_quit;
  G.stb g ~base:G.rdi ~disp:4 G.rdx ();
  G.call g "send_frame";
  G.call g "read_reply";
  G.sys_marker g 6;
  G.lii g G.rdi client_out;
  G.syscall g Abi.sys_close;
  G.lii g G.rdi client_in;
  G.syscall g Abi.sys_close;
  G.sys_exit g 0;
  G.assemble g

(** All programs of the benchmark, ready for {!Ptl_kernel.Kernel}. *)
let programs () =
  [
    ("init", init_prog ());
    ("rsync_client", rsync_client_full ());
    ("ssh_client", ssh_client ());
    ("sshd", sshd ());
    ("rsync_server", rsync_server ());
  ]
