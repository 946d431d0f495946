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

(* --- page-wise image load = byte-wise load: [Kernel.load_image] leaves
   the frames, the dirty set, the allocation count, the page-table epoch
   and the kernel-page list that mapping every page and then writing the
   image one probed byte at a time leaves. --- *)

module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable

let load_image_bytewise (k : Kernel.t) ~cr3 (img : Ptl_isa.Asm.image) ~user =
  let mem = k.Kernel.env.Env.mem in
  let base = img.Ptl_isa.Asm.img_base and code = img.Ptl_isa.Asm.code in
  let first = Int64.to_int base land Pm.page_mask in
  let npages = (first + String.length code + Pm.page_size - 1) / Pm.page_size in
  for i = 0 to npages - 1 do
    let va = Int64.add base (Int64.of_int ((i * Pm.page_size) - first)) in
    let mfn = Pm.alloc_page mem in
    Pt.map mem ~cr3_mfn:cr3 ~vaddr:va ~mfn ~writable:true ~user
      ~alloc:(fun () -> Pm.alloc_page mem)
      ();
    if not user then k.Kernel.kernel_pages <- (va, mfn) :: k.Kernel.kernel_pages
  done;
  String.iteri
    (fun i c ->
      let va = Int64.add base (Int64.of_int i) in
      match Pt.probe mem ~cr3_mfn:cr3 ~vaddr:va with
      | Some mfn ->
        Pm.write8 mem (Pm.paddr_of_mfn mfn + (Int64.to_int va land Pm.page_mask)) (Char.code c)
      | None -> assert false)
    code

let test_load_image_pagewise () =
  let rng = Ptl_util.Rng.create 9 in
  let image img_base n =
    { Ptl_isa.Asm.img_base;
      code = String.init n (fun _ -> Char.chr (Ptl_util.Rng.int rng 256));
      symbols = Hashtbl.create 1 }
  in
  let kernel_image = (Ptl_kernel.Kbuild.build ()).Ptl_kernel.Kbuild.image in
  List.iter
    (fun (name, img, user) ->
      let mk () =
        let env = Env.create () in
        let k = Kernel.create env (Context.create ~vcpu_id:0) in
        (* a page-table write during the load advances the epoch *)
        Pm.watch env.Env.mem k.Kernel.kernel_cr3;
        Pm.clear_dirty env.Env.mem;
        k
      in
      let a = mk () and b = mk () in
      load_image_bytewise a ~cr3:a.Kernel.kernel_cr3 img ~user;
      Kernel.load_image b ~cr3:b.Kernel.kernel_cr3 img ~user;
      let ma = a.Kernel.env.Env.mem and mb = b.Kernel.env.Env.mem in
      Alcotest.(check (list int)) (name ^ ": frame bytes") [] (Pm.diff ma mb);
      Alcotest.(check bool) (name ^ ": dirty set") true (Pm.delta ma = Pm.delta mb);
      Alcotest.(check int) (name ^ ": allocated pages") (Pm.allocated_pages ma)
        (Pm.allocated_pages mb);
      Alcotest.(check int) (name ^ ": page-table epoch") (Pm.pt_epoch ma) (Pm.pt_epoch mb);
      Alcotest.(check bool) (name ^ ": kernel pages") true
        (a.Kernel.kernel_pages = b.Kernel.kernel_pages))
    [
      ("kernel image", kernel_image, false);
      ("empty image", image 0x40_0000L 0, true);
      ("unaligned user image", image 0x40_0123L 300, true);
      ("page-straddling kernel image", image 0x7F_0F80L (Pm.page_size + 500), false);
      ("multi-page user image", image 0x50_0010L 9000, true);
    ]

(* --- page-wise DMA = byte-wise DMA: [Ramfs.dma_block_in] leaves the
   frames, the dirty set, the allocation count and the page-table epoch
   (advanced or not) that writing the block and its zero tail one byte
   at a time leaves, for full, partial and past-the-end blocks, at
   page-aligned and frame-straddling physical addresses, over written,
   freshly allocated, watched and never-touched frames. --- *)

(* [Ramfs.dma_block_in] as it was: one write8 a byte. *)
let dma_block_in_bytewise mem (f : Ramfs.file) blk ~paddr =
  let off = blk * Ramfs.block_size in
  let n = min Ramfs.block_size (max 0 (f.Ramfs.size - off)) in
  for i = 0 to Ramfs.block_size - 1 do
    Pm.write8 mem (paddr + i) (if i < n then Char.code (Bytes.get f.Ramfs.data (off + i)) else 0)
  done

let prop_dma_pagewise =
  QCheck.Test.make ~name:"page-wise DMA = byte-wise DMA" ~count:80 QCheck.int (fun seed ->
      let rng = Ptl_util.Rng.create seed in
      let size = Ptl_util.Rng.int rng (3 * Ramfs.block_size) in
      let contents = String.init size (fun _ -> Char.chr (Ptl_util.Rng.int rng 256)) in
      let blk = Ptl_util.Rng.int rng 4 in
      let off =
        match Ptl_util.Rng.int rng 3 with
        | 0 -> 0
        | 1 -> 64 * Ptl_util.Rng.int rng 64
        | _ -> Ptl_util.Rng.int rng Pm.page_size
      in
      (* frames 0-1 hold nonzero bytes, 2-3 are allocated only, 4-5
         never touched; frame 0 is watched *)
      let first = Ptl_util.Rng.int rng 5 in
      let junk = String.init (2 * Pm.page_size) (fun _ -> Char.chr (1 + Ptl_util.Rng.int rng 255)) in
      let mk () =
        let mem = Pm.create () in
        let base = Pm.alloc_pages mem 4 in
        for i = 0 to 1 do
          Pm.blit_string mem junk (i * Pm.page_size) (Pm.paddr_of_mfn (base + i)) Pm.page_size
        done;
        Pm.watch mem base;
        Pm.clear_dirty mem;
        (mem, Pm.paddr_of_mfn (base + first) + off)
      in
      let fs = Ramfs.create () in
      Ramfs.add_file fs ~name:"f" ~contents;
      let f = Option.get (Ramfs.find fs "f") in
      let ma, pa = mk () and mb, pb = mk () in
      let epoch0 = Pm.pt_epoch ma in
      dma_block_in_bytewise ma f blk ~paddr:pa;
      (* an identity translation: the block is physically contiguous *)
      Ramfs.dma_block_in mb f blk ~va:(Int64.of_int pb) ~translate:Int64.to_int;
      (* a write to the watched frame advances the epoch once per byte
         written byte-wise and once per slice page-wise: either way a
         memo taken before is stale *)
      Pm.diff ma mb = []
      && Pm.delta ma = Pm.delta mb
      && Pm.allocated_pages ma = Pm.allocated_pages mb
      && (Pm.pt_epoch ma > epoch0) = (Pm.pt_epoch mb > epoch0))

(* --- a page-cache block straddling two pages whose frames are not
   adjacent: DMA-in puts each byte where a per-byte virtual write would,
   the frame between the two is untouched, and write-back reads the
   bytes from there. --- *)
let test_dma_noncontiguous () =
  let block = Ramfs.block_size in
  let contents = String.init (block + 1000) (fun i -> Char.chr (1 + (i * 7 mod 251))) in
  let fs = Ramfs.create () in
  Ramfs.add_file fs ~name:"f" ~contents;
  let f = Option.get (Ramfs.find fs "f") in
  (* virtual page 0 maps frame [base], page 1 frame [base + 2]; frame
     [base + 1] holds other data *)
  let va0 = 0x7000_0000L in
  let mk () =
    let mem = Pm.create () in
    let base = Pm.alloc_pages mem 3 in
    Pm.blit_string mem (String.make Pm.page_size '\xAA') 0
      (Pm.paddr_of_mfn (base + 1)) Pm.page_size;
    let translate va =
      let rel = Int64.to_int (Int64.sub va va0) in
      let mfn = if rel < Pm.page_size then base else base + 2 in
      Pm.paddr_of_mfn mfn + (rel land Pm.page_mask)
    in
    (mem, translate)
  in
  List.iter
    (fun (blk, page_off) ->
      let name = Printf.sprintf "block %d at page offset %d" blk page_off in
      let va = Int64.add va0 (Int64.of_int page_off) in
      let ma, ta = mk () and mb, tb = mk () in
      (* an earlier case may have written the block back *)
      let disk = Bytes.to_string f.Ramfs.data in
      Ramfs.dma_block_in ma f blk ~va ~translate:ta;
      let n = min block (String.length disk - (blk * block)) in
      for i = 0 to block - 1 do
        let b = if i < n then Char.code disk.[(blk * block) + i] else 0 in
        Pm.write8 mb (tb (Int64.add va (Int64.of_int i))) b
      done;
      Alcotest.(check (list int)) (name ^ ": frames") [] (Pm.diff ma mb);
      (* write-back reads the bytes back through the same translation *)
      for i = 0 to block - 1 do
        Pm.write8 ma (ta (Int64.add va (Int64.of_int i))) (i land 0xFF)
      done;
      Ramfs.writeback_block ma f blk ~va ~translate:ta ~upto:block;
      Alcotest.(check string) (name ^ ": written back")
        (String.init block (fun i -> Char.chr (i land 0xFF)))
        (Bytes.sub_string f.Ramfs.data (blk * block) block))
    [ (0, 256); (1, 256); (0, Pm.page_size - 1) ]

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
    Alcotest.test_case "page-wise load_image = byte-wise load" `Quick
      test_load_image_pagewise;
    Test_seed.to_alcotest prop_dma_pagewise;
    Alcotest.test_case "page-cache DMA across non-adjacent frames" `Quick
      test_dma_noncontiguous;
  ]
