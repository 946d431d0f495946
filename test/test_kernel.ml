(* Full-system minios tests: guest programs written with the Gasm DSL,
   booted through the real kernel image, exercising syscalls, the
   scheduler, pipes, sockets, the disk model and preemptive timeslicing —
   on both the functional core and the out-of-order core. *)

module Kernel = Ptl_kernel.Kernel
module Abi = Ptl_kernel.Abi
module Ramfs = Ptl_kernel.Ramfs
module G = Ptl_workloads.Gasm
module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Registry = Ptl_ooo.Registry
module Config = Ptl_ooo.Config
module Stats = Ptl_stats.Statstree
module Flags = Ptl_isa.Flags

(* Boot a kernel with the given programs and drive it on [core] until
   shutdown. Returns (kernel, env). *)
let boot_and_run ?(core = "seq") ?(max_cycles = 200_000_000) ?(files = [])
    ?(kconfig = Kernel.default_config) programs =
  let env = Env.create () in
  let ctx = Context.create ~vcpu_id:0 in
  let k = Kernel.create ~config:kconfig env ctx in
  List.iter (fun (name, contents) -> Kernel.add_file k ~name ~contents) files;
  List.iter (fun (name, image) -> Kernel.register_program k ~name image) programs;
  Kernel.boot k;
  let inst = Registry.build core Config.tiny env [| ctx |] in
  (* the standalone drive loop: step the core, polling device events,
     and skip idle gaps to the next event (counted as idle) *)
  let idle_skipped = Stats.counter env.Env.stats "kernel.idle_skipped_cycles" in
  let start = env.Env.cycle in
  while (not (Kernel.is_shutdown k)) && env.Env.cycle - start < max_cycles do
    if Kernel.next_event_cycle k <= env.Env.cycle then Kernel.poll k;
    if inst.Registry.idle () then begin
      if Kernel.next_event_cycle k = max_int then k.Kernel.shutdown <- true
      else begin
        let skip = max 0 (Kernel.next_event_cycle k - env.Env.cycle) in
        Stats.add idle_skipped skip;
        env.Env.cycle <- env.Env.cycle + skip;
        Kernel.poll k
      end
    end
    else inst.Registry.step ()
  done;
  (k, env)

let test_file_write_read () =
  (* init: create "out", write a constant, read it back, verify, write a
     verdict file, exit *)
  let g = G.create () in
  let path = G.cstring g "out" in
  let buf = G.buffer g 64 in
  (* fill buffer with 'A'..'@'+64 *)
  G.la g G.rdi buf;
  G.loop_n g 64 (fun () ->
      G.mov g G.rax G.rcx;
      G.addi g G.rax 64;
      G.stb g ~base:G.rdi G.rax ();
      G.addi g G.rdi 1);
  (* creat + write *)
  G.la g G.rdi path;
  G.syscall g Abi.sys_creat;
  G.mov g G.rbx G.rax (* fd *);
  G.mov g G.rdi G.rbx;
  G.la g G.rsi buf;
  G.lii g G.rdx 64;
  G.syscall g Abi.sys_write;
  G.mov g G.rdi G.rbx;
  G.syscall g Abi.sys_close;
  (* reopen and read back into buf2 *)
  let buf2 = G.buffer g 64 in
  G.la g G.rdi path;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_open;
  G.mov g G.rbx G.rax;
  G.mov g G.rdi G.rbx;
  G.la g G.rsi buf2;
  G.lii g G.rdx 64;
  G.syscall g Abi.sys_read;
  (* compare: exit code = number of mismatches *)
  G.la g G.rsi buf;
  G.la g G.rdi buf2;
  G.xor g G.rbx G.rbx;
  G.loop_n g 64 (fun () ->
      G.ldb g G.rax ~base:G.rsi ();
      G.ldb g G.rdx ~base:G.rdi ();
      G.cmp g G.rax G.rdx;
      let ok = G.fresh g "ok" in
      G.je g ok;
      G.addi g G.rbx 1;
      G.label g ok;
      G.addi g G.rsi 1;
      G.addi g G.rdi 1);
  G.mov g G.rdi G.rbx;
  G.syscall g Abi.sys_exit;
  let k, _ = boot_and_run [ ("init", G.assemble g) ] in
  (* mismatches = exit code of init (pid 1) *)
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "no mismatches" 0 code
  | None -> Alcotest.fail "init did not exit");
  Alcotest.(check bool) "file persisted" true (Ramfs.exists k.Kernel.fs "out")

let test_disk_page_in () =
  (* reading a pre-existing file must hit the disk path (latency + DMA) *)
  let contents = String.init 10_000 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let g = G.create () in
  G.jmp g "start";
  G.emit_read_full_fn g;
  G.label g "start";
  let path = G.cstring g "data" in
  let buf = G.buffer g 4096 in
  G.la g G.rdi path;
  G.lii g G.rsi 0;
  G.syscall g Abi.sys_open;
  G.mov g G.rbx G.rax;
  (* read 8192 bytes; checksum them as exit code (mod 256) *)
  G.mov g G.rdi G.rbx;
  G.la g G.rsi buf;
  G.lii g G.rdx 4096;
  G.call g "read_full";
  G.mov g G.r12 G.rax;
  G.mov g G.rdi G.rbx;
  G.la g G.rsi buf;
  G.lii g G.rdx 4096;
  G.call g "read_full";
  G.add g G.r12 G.rax;
  G.mov g G.rdi G.r12;
  G.syscall g Abi.sys_exit;
  let k, env = boot_and_run ~files:[ ("data", contents) ] [ ("init", G.assemble g) ] in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "read 8192 bytes" 8192 code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  Alcotest.(check bool) "disk reads happened" true (Stats.get stats "kernel.disk_reads" >= 2);
  Alcotest.(check bool) "idle time while waiting on disk" true
    (Stats.get stats "kernel.idle_skipped_cycles" > 0)

(* entry label helper: programs starting with library functions need a
   jump over them; simplest is emitting functions after an initial jmp *)
let with_main g emit_libs main =
  G.jmp g "main";
  emit_libs ();
  G.label g "main";
  main ()

let test_pipe_parent_child () =
  (* init: make a pipe, spawn "child" (inherits fds), write a message,
     child doubles each byte and exits with the sum *)
  let parent = G.create () in
  with_main parent
    (fun () -> ())
    (fun () ->
      let fds = G.buffer parent 8 in
      G.la parent G.rdi fds;
      G.syscall parent Abi.sys_pipe;
      (* spawn child with arg = read fd *)
      let child_name = G.cstring parent "child" in
      G.la parent G.rdi fds;
      G.ins parent
        (Ptl_isa.Insn.Movzx
           (Ptl_util.W64.B8, Ptl_util.W64.B4, G.r12, Ptl_isa.Insn.Mem (Ptl_isa.Insn.mem_bd G.rdi 0L)));
      G.ins parent
        (Ptl_isa.Insn.Movzx
           (Ptl_util.W64.B8, Ptl_util.W64.B4, G.r13, Ptl_isa.Insn.Mem (Ptl_isa.Insn.mem_bd G.rdi 4L)));
      G.la parent G.rdi child_name;
      (* pack both fds into the spawn argument: rfd | wfd << 8 *)
      G.mov parent G.rsi G.r13;
      G.shl parent G.rsi 8;
      G.ins parent
        (Ptl_isa.Insn.Alu
           (Ptl_isa.Insn.Or, Ptl_util.W64.B8, Ptl_isa.Insn.Reg G.rsi,
            Ptl_isa.Insn.RM (Ptl_isa.Insn.Reg G.r12)));
      G.syscall parent Abi.sys_spawn;
      G.mov parent G.rbx G.rax (* child pid *);
      (* write 16 bytes of value 3 *)
      let msg = G.buffer parent 16 in
      G.la parent G.rdi msg;
      G.lii parent G.rsi 3;
      G.lii parent G.rdx 16;
      G.loop_n parent 16 (fun () ->
          G.stb parent ~base:G.rdi G.rsi ();
          G.addi parent G.rdi 1);
      G.mov parent G.rdi G.r13;
      G.la parent G.rsi msg;
      G.lii parent G.rdx 16;
      G.syscall parent Abi.sys_write;
      (* close write end so the child sees EOF *)
      G.mov parent G.rdi G.r13;
      G.syscall parent Abi.sys_close;
      (* wait for the child; exit with its code *)
      G.mov parent G.rdi G.rbx;
      G.syscall parent Abi.sys_waitpid;
      G.mov parent G.rdi G.rax;
      G.syscall parent Abi.sys_exit);
  let child = G.create () in
  with_main child
    (fun () -> ())
    (fun () ->
      (* spawn arg: rfd | wfd<<8. close the inherited write end first so
         EOF propagates, then read until EOF and sum *)
      G.mov child G.rbx G.rdi;
      G.andi child G.rbx 0xFF;
      G.shr child G.rdi 8;
      G.andi child G.rdi 0xFF;
      G.syscall child Abi.sys_close;
      let buf = G.buffer child 32 in
      G.xor child G.r12 G.r12;
      let top = G.fresh child "rd" in
      let out = G.fresh child "done" in
      G.label child top;
      G.mov child G.rdi G.rbx;
      G.la child G.rsi buf;
      G.lii child G.rdx 32;
      G.syscall child Abi.sys_read;
      G.cmpi child G.rax 0;
      G.jcc child Flags.LE out;
      (* sum rax bytes *)
      G.la child G.rsi buf;
      G.mov child G.rcx G.rax;
      let sum = G.fresh child "sum" in
      G.label child sum;
      G.ldb child G.rdx ~base:G.rsi ();
      G.add child G.r12 G.rdx;
      G.addi child G.rsi 1;
      G.subi child G.rcx 1;
      G.jne child sum;
      G.jmp child top;
      G.label child out;
      G.mov child G.rdi G.r12;
      G.syscall child Abi.sys_exit);
  let k, _ =
    boot_and_run [ ("init", G.assemble parent); ("child", G.assemble child) ]
  in
  match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "sum via pipe" 48 code
  | None -> Alcotest.fail "init did not exit"

let test_sockets_loopback () =
  (* server listens on port 7; client connects, sends 100 bytes of 7s;
     server sums and exits with sum mod 251 *)
  let server = G.create () in
  with_main server
    (fun () -> G.emit_read_full_fn server)
    (fun () ->
      G.syscall server Abi.sys_socket;
      G.mov server G.rbx G.rax;
      G.mov server G.rdi G.rbx;
      G.lii server G.rsi 7;
      G.syscall server Abi.sys_listen;
      G.mov server G.rdi G.rbx;
      G.syscall server Abi.sys_accept;
      G.mov server G.r13 G.rax;
      let buf = G.buffer server 128 in
      G.mov server G.rdi G.r13;
      G.la server G.rsi buf;
      G.lii server G.rdx 100;
      G.call server "read_full";
      (* sum *)
      G.la server G.rsi buf;
      G.xor server G.r12 G.r12;
      G.loop_n server 100 (fun () ->
          G.ldb server G.rdx ~base:G.rsi ();
          G.add server G.r12 G.rdx;
          G.addi server G.rsi 1);
      G.mov server G.rdi G.r12;
      G.syscall server Abi.sys_exit);
  let client = G.create () in
  with_main client
    (fun () -> G.emit_write_full_fn client)
    (fun () ->
      (* give the server a moment to listen *)
      G.lii client G.rdi 50_000;
      G.syscall client Abi.sys_sleep;
      G.syscall client Abi.sys_socket;
      G.mov client G.rbx G.rax;
      let retry = G.fresh client "retry" in
      G.label client retry;
      G.mov client G.rdi G.rbx;
      G.lii client G.rsi 7;
      G.syscall client Abi.sys_connect;
      G.cmpi client G.rax 0;
      let ok = G.fresh client "ok" in
      G.je client ok;
      G.lii client G.rdi 10_000;
      G.syscall client Abi.sys_sleep;
      G.jmp client retry;
      G.label client ok;
      let buf = G.buffer client 128 in
      G.la client G.rdi buf;
      G.lii client G.rsi 7;
      G.lii client G.rdx 100;
      G.loop_n client 100 (fun () ->
          G.stb client ~base:G.rdi G.rsi ();
          G.addi client G.rdi 1);
      G.mov client G.rdi G.rbx;
      G.la client G.rsi buf;
      G.lii client G.rdx 100;
      G.call client "write_full";
      G.mov client G.rdi G.rbx;
      G.syscall client Abi.sys_close;
      G.sys_exit client 0);
  let init = G.create () in
  with_main init
    (fun () -> ())
    (fun () ->
      let sname = G.cstring init "server" in
      let cname = G.cstring init "client" in
      G.la init G.rdi sname;
      G.lii init G.rsi 0;
      G.syscall init Abi.sys_spawn;
      G.mov init G.r12 G.rax;
      G.la init G.rdi cname;
      G.lii init G.rsi 0;
      G.syscall init Abi.sys_spawn;
      G.mov init G.rdi G.r12;
      G.syscall init Abi.sys_waitpid;
      G.mov init G.rdi G.rax;
      G.syscall init Abi.sys_exit);
  let k, env =
    boot_and_run
      [ ("init", G.assemble init); ("server", G.assemble server); ("client", G.assemble client) ]
  in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "sum over socket" 700 code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  Alcotest.(check bool) "packets flowed" true (Stats.get stats "kernel.packets" > 0)

let test_preemption () =
  (* two spinners must interleave under the timer; each increments a
     shared-file... simpler: both run a long loop; init waits for both.
     If preemption failed, the second would starve past max_cycles. *)
  let spinner = G.create () in
  with_main spinner
    (fun () -> ())
    (fun () ->
      G.lii spinner G.rbx 0;
      let top = G.fresh spinner "spin" in
      G.label spinner top;
      G.addi spinner G.rbx 1;
      G.lii spinner G.rax 2_000_00;
      G.cmp spinner G.rbx G.rax;
      G.jne spinner top;
      G.sys_exit spinner 7);
  let init = G.create () in
  with_main init
    (fun () -> ())
    (fun () ->
      let sname = G.cstring init "spin" in
      G.la init G.rdi sname;
      G.lii init G.rsi 0;
      G.syscall init Abi.sys_spawn;
      G.mov init G.r12 G.rax;
      G.la init G.rdi sname;
      G.syscall init Abi.sys_spawn;
      G.mov init G.r13 G.rax;
      G.mov init G.rdi G.r12;
      G.syscall init Abi.sys_waitpid;
      G.mov init G.rbx G.rax;
      G.mov init G.rdi G.r13;
      G.syscall init Abi.sys_waitpid;
      G.add init G.rbx G.rax;
      G.mov init G.rdi G.rbx;
      G.syscall init Abi.sys_exit);
  let kconfig = { Kernel.default_config with Kernel.timer_period = 50_000 } in
  let k, env =
    boot_and_run ~kconfig [ ("init", G.assemble init); ("spin", G.assemble spinner) ]
  in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "both spinners finished" 14 code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  Alcotest.(check bool) "context switches" true (Stats.get stats "kernel.context_switches" > 4);
  Alcotest.(check bool) "timer ticked" true (Stats.get stats "kernel.timer_ticks" > 0)

let test_readdir_stat () =
  let files = [ ("dir/a", "xx"); ("dir/b", "yyyy"); ("other", "z") ] in
  let g = G.create () in
  with_main g
    (fun () -> ())
    (fun () ->
      let prefix = G.cstring g "dir/" in
      let buf = G.buffer g 64 in
      (* count entries and sum their sizes *)
      G.xor g G.r12 G.r12 (* index *);
      G.xor g G.r13 G.r13 (* size sum *);
      let top = G.fresh g "rd" in
      let out = G.fresh g "out" in
      G.label g top;
      G.la g G.rdi prefix;
      G.mov g G.rsi G.r12;
      G.la g G.rdx buf;
      G.syscall g Abi.sys_readdir;
      G.cmpi g G.rax 0;
      G.jcc g Flags.L out;
      G.la g G.rax buf;
      G.ld g G.rdx ~base:G.rax ();
      G.add g G.r13 G.rdx;
      G.addi g G.r12 1;
      G.jmp g top;
      G.label g out;
      (* exit code = entries * 100 + total size  (2 entries, 6 bytes) *)
      G.mov g G.rax G.r12;
      G.lii g G.rbx 100;
      G.imul g G.rax G.rbx;
      G.add g G.rax G.r13;
      G.mov g G.rdi G.rax;
      G.syscall g Abi.sys_exit);
  let k, _ = boot_and_run ~files [ ("init", G.assemble g) ] in
  match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "2 entries, 6 bytes" 206 code
  | None -> Alcotest.fail "init did not exit"

let test_kernel_on_ooo_core () =
  (* the same file test must pass on the cycle-accurate core *)
  let g = G.create () in
  with_main g
    (fun () -> ())
    (fun () ->
      let path = G.cstring g "f" in
      G.la g G.rdi path;
      G.syscall g Abi.sys_creat;
      G.mov g G.rbx G.rax;
      let buf = G.buffer g 32 in
      G.la g G.rdi buf;
      G.lii g G.rsi 9;
      G.loop_n g 32 (fun () ->
          G.stb g ~base:G.rdi G.rsi ();
          G.addi g G.rdi 1);
      G.mov g G.rdi G.rbx;
      G.la g G.rsi buf;
      G.lii g G.rdx 32;
      G.syscall g Abi.sys_write;
      G.mov g G.rdi G.rax;
      G.syscall g Abi.sys_exit);
  let k, env = boot_and_run ~core:"ooo" [ ("init", G.assemble g) ] in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code -> Alcotest.(check int) "wrote 32" 32 code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  Alcotest.(check bool) "kernel cycles counted" true
    (Stats.get stats "ooo.cycles_in_mode.kernel" > 0);
  Alcotest.(check bool) "user cycles counted" true
    (Stats.get stats "ooo.cycles_in_mode.user" > 0)

(* Demand paging (lib/vm behind Kernel.config.demand_paging): the user
   address space starts empty, every first touch is a real #PF delivered
   through the simulated IDT and resolved by the VM layer, and the
   program still computes the right answer. *)
let heap_sweep ~pages =
  let g = G.create () in
  (* stamp page i with i+1, then sum the stamps back; exit code = sum *)
  G.li g G.rsi Abi.user_heap_base;
  G.xor g G.rcx G.rcx;
  G.label g "stamp";
  G.mov g G.rax G.rcx;
  G.addi g G.rax 1;
  G.st g ~base:G.rsi G.rax ();
  G.addi g G.rsi 4096;
  G.addi g G.rcx 1;
  G.cmpi g G.rcx pages;
  G.jcc g Flags.B "stamp";
  G.li g G.rsi Abi.user_heap_base;
  G.xor g G.rbx G.rbx;
  G.xor g G.rcx G.rcx;
  G.label g "sum";
  G.ld g G.rax ~base:G.rsi ();
  G.add g G.rbx G.rax;
  G.addi g G.rsi 4096;
  G.addi g G.rcx 1;
  G.cmpi g G.rcx pages;
  G.jcc g Flags.B "sum";
  G.mov g G.rdi G.rbx;
  G.syscall g Abi.sys_exit;
  G.assemble g

let test_demand_paging () =
  let kconfig = { Kernel.default_config with Kernel.demand_paging = true } in
  let k, env = boot_and_run ~kconfig [ ("init", heap_sweep ~pages:24) ] in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code ->
    Alcotest.(check int) "sum over 24 demand-paged pages" (24 * 25 / 2)
      code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  (* at least the touched heap pages plus code and stack faulted in *)
  Alcotest.(check bool)
    (Printf.sprintf "faults flowed through the kernel entry path (%d)"
       (Stats.get stats "vm.faults"))
    true
    (Stats.get stats "vm.faults" >= 24);
  Alcotest.(check bool) "fills recorded" true (Stats.get stats "vm.fills" > 0)

let test_demand_paging_reclaim () =
  (* a 16-frame resident budget under a 48-page working set: the CLOCK
     must evict and swap back in, shootdown IPIs must reach the running
     VCPU, and the program must still be correct *)
  let kconfig =
    {
      Kernel.default_config with
      Kernel.demand_paging = true;
      vm_watermark = 16;
      vm_batch = 4;
    }
  in
  let k, env = boot_and_run ~kconfig [ ("init", heap_sweep ~pages:48) ] in
  (match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code ->
    Alcotest.(check int) "sum survives eviction and swap-in" (48 * 49 / 2)
      code
  | None -> Alcotest.fail "init did not exit");
  let stats = env.Env.stats in
  Alcotest.(check bool) "evictions happened" true
    (Stats.get stats "vm.evictions" > 0);
  Alcotest.(check bool) "evicted pages swapped back in" true
    (Stats.get stats "vm.swap_ins" > 0);
  Alcotest.(check bool) "shootdown IPIs delivered" true
    (Stats.get stats "vm.shootdowns" > 0)

let test_demand_paging_segv () =
  (* a stray store outside every VMA must kill the process, not the
     kernel *)
  let g = G.create () in
  G.li g G.rsi 0x7000_0000L;
  G.lii g G.rax 1;
  G.st g ~base:G.rsi G.rax ();
  G.lii g G.rdi 0;
  G.syscall g Abi.sys_exit;
  let kconfig = { Kernel.default_config with Kernel.demand_paging = true } in
  let k, _ = boot_and_run ~kconfig [ ("init", G.assemble g) ] in
  match List.assoc_opt 1 (Kernel.exit_codes k) with
  | Some code ->
    Alcotest.(check int) "killed with -1, not exit 0" (-1) code
  | None -> Alcotest.fail "init did not exit"

let suite =
  [
    Alcotest.test_case "file write/read" `Quick test_file_write_read;
    Alcotest.test_case "disk page-in" `Quick test_disk_page_in;
    Alcotest.test_case "pipe parent/child" `Quick test_pipe_parent_child;
    Alcotest.test_case "sockets loopback" `Quick test_sockets_loopback;
    Alcotest.test_case "preemptive timeslicing" `Quick test_preemption;
    Alcotest.test_case "readdir/stat" `Quick test_readdir_stat;
    Alcotest.test_case "kernel on ooo core" `Quick test_kernel_on_ooo_core;
    Alcotest.test_case "demand paging end to end" `Quick test_demand_paging;
    Alcotest.test_case "demand paging reclaim + shootdown" `Quick
      test_demand_paging_reclaim;
    Alcotest.test_case "demand paging segv kills the process" `Quick
      test_demand_paging_segv;
  ]
