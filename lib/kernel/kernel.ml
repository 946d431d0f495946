(** The minios kernel model.

    Division of labour (documented in DESIGN.md): *bookkeeping* (process
    tables, file descriptors, ring-buffer indices, scheduling decisions)
    is host-side, exactly like Xen's backend drivers and PTLmon live
    outside the simulated pipeline; but *all guest-visible work* — copy
    loops, checksum loops, interrupt entry/exit with full register
    save/restore, run-queue scans, the idle hlt loop — executes as real
    simulated kernel-mode instructions, so the user/kernel/idle cycle
    accounting of the paper's Figure 2 is genuinely simulated.

    Context switching uses two mechanisms, both with real-hardware
    analogues: interrupt-path switches park the outgoing process on its own
    kernel stack (the guest pops 15 registers and irets on resume), while
    syscall-path blocking snapshots the register file host-side, the same
    way Xen's contextswap hypercall moves VCPU state (§4). *)

open Ptl_util
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Vmem = Ptl_arch.Vmem
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Stats = Ptl_stats.Statstree
module Regs = Ptl_isa.Regs
module Vm = Ptl_vm.Vm

type config = {
  timer_period : int;  (* cycles between timer interrupts *)
  timeslice_ticks : int;  (* timer ticks per scheduling quantum *)
  disk_latency : int;  (* cycles per block fetch from "disk" *)
  net_latency : int;  (* cycles per packet on the loopback path *)
  net_mtu : int;  (* bytes per packet *)
  kheap_pages : int;  (* page cache + ring buffer budget *)
  demand_paging : bool;  (* lazily populate user address spaces *)
  vm_watermark : int;  (* resident user-frame budget (0 = unlimited) *)
  vm_batch : int;  (* evictions per reclaim pass *)
}

(** 2.2 GHz-flavoured defaults: 1000 Hz timer, ~50us disk, ~30us network. *)
let default_config =
  {
    timer_period = 2_200_000;
    timeslice_ticks = 4;
    disk_latency = 110_000;
    net_latency = 66_000;
    net_mtu = 1460;
    kheap_pages = 4096;
    demand_paging = false;
    vm_watermark = 0;
    vm_batch = 8;
  }

(* ---- kernel objects ---- *)

type pipe = {
  p_ring_va : int64;  (* guest VA of the ring buffer (kheap) *)
  p_cap : int;
  mutable p_r : int;  (* read cursor (absolute) *)
  mutable p_w : int;  (* write cursor (absolute) *)
  mutable p_readers : int;
  mutable p_writers : int;
}

(* One direction of a TCP-lite connection. *)
type channel = {
  ch_ring_va : int64;
  ch_cap : int;
  mutable ch_r : int;
  mutable ch_w : int;  (* bytes written (committed by sender) *)
  mutable ch_delivered : int;  (* bytes visible to the receiver *)
  mutable ch_in_flight : int;  (* bytes with a pending delivery event *)
  mutable ch_closed : bool;
}

type socket = {
  sock_id : int;
  mutable sock_refs : int;  (* open fd references across all processes *)
  mutable sock_port : int;
  mutable sock_listening : bool;
  mutable sock_backlog : int list;  (* pending peer socket ids *)
  mutable sock_tx : channel option;  (* data we send *)
  mutable sock_rx : channel option;  (* data we receive *)
}

type fd_obj =
  | F_file of { file : Ramfs.file; mutable pos : int; writable : bool }
  | F_pipe_r of pipe
  | F_pipe_w of pipe
  | F_sock of socket

type resume =
  | R_fresh of { entry : int64; user_rsp : int64; mutable arg : int64 }
  | R_kstack of int64  (* kernel rsp; resumes at timer_resume *)
  | R_syscall of int64 array  (* saved regs; re-dispatch the syscall *)
  | R_sysret of { regs : int64 array; rax : int64 }

type pstate = Ready | Running | Blocked | Zombie

type proc = {
  pid : int;
  pname : string;
  cr3 : int;
  kstack_top : int64;
  mutable state : pstate;
  mutable resume : resume;
  mutable fds : fd_obj option array;
  mutable exit_code : int;
  mutable ticks_run : int;
  mutable pending_commit : (unit -> int64) option;
}

type event =
  | E_timer
  | E_disk_done of { pid : int; file : Ramfs.file; blk : int; va : int64 }
  | E_net_deliver of { ch : channel; bytes : int }
  | E_wake of int

type t = {
  env : Env.t;
  ctx : Context.t;
  config : config;
  layout : Kbuild.layout;
  fs : Ramfs.t;
  programs : (string, Ptl_isa.Asm.image) Hashtbl.t;
  mutable procs : proc list;
  mutable next_pid : int;
  mutable current : proc option;
  runqueue : int Queue.t;
  mutable events : (int * event) list;  (* sorted by cycle *)
  mutable next_event_cycle : int;
  mutable jiffies : int;
  kernel_cr3 : int;
  mutable kernel_pages : (int64 * int) list;  (* (va, mfn) of kernel region *)
  mutable kheap_next : int64;
  mutable kheap_end : int64;
  mutable sockets : socket list;
  mutable next_sock : int;
  mutable shutdown : bool;
  mutable scratch : int64;  (* kernel VA of a small metadata buffer *)
  vm : Vm.t option;  (* demand-paging policy engine (config.demand_paging) *)
  mutable on_marker : int -> unit;
  c_syscalls : Stats.counter;
  c_switches : Stats.counter;
  c_timer_ticks : Stats.counter;
  c_disk_reads : Stats.counter;
  c_packets : Stats.counter;
  c_page_ins : Stats.counter;
}

exception Kernel_panic of string

(* ---- event queue ---- *)

let refresh_next t =
  t.next_event_cycle <-
    (match t.events with [] -> max_int | (c, _) :: _ -> c)

let post t ~at ev =
  let rec insert = function
    | [] -> [ (at, ev) ]
    | (c, e) :: rest when c <= at -> (c, e) :: insert rest
    | later -> (at, ev) :: later
  in
  t.events <- insert t.events;
  refresh_next t

let next_event_cycle t = t.next_event_cycle

(* ---- address space plumbing ---- *)

let alloc_mapped t ~cr3 ~vaddr ~npages ~user =
  for i = 0 to npages - 1 do
    let va = Int64.add vaddr (Int64.of_int (i * Pm.page_size)) in
    let mfn = Pm.alloc_page t.env.Env.mem in
    Pt.map t.env.Env.mem ~cr3_mfn:cr3 ~vaddr:va ~mfn ~writable:true ~user
      ~alloc:(fun () -> Pm.alloc_page t.env.Env.mem)
      ();
    if not user then t.kernel_pages <- (va, mfn) :: t.kernel_pages
  done

(* Map the accumulated kernel region into another address space. *)
let map_kernel_into t ~cr3 =
  List.iter
    (fun (va, mfn) ->
      Pt.map t.env.Env.mem ~cr3_mfn:cr3 ~vaddr:va ~mfn ~writable:true ~user:false
        ~alloc:(fun () -> Pm.alloc_page t.env.Env.mem)
        ())
    t.kernel_pages

let load_image t ~cr3 (img : Ptl_isa.Asm.image) ~user =
  let base = img.Ptl_isa.Asm.img_base in
  let len = String.length img.Ptl_isa.Asm.code in
  let first = Int64.to_int (Int64.logand base (Int64.of_int Pm.page_mask)) in
  let npages = (first + len + Pm.page_size - 1) / Pm.page_size in
  let page_base = Int64.sub base (Int64.of_int first) in
  for i = 0 to npages - 1 do
    let va = Int64.add page_base (Int64.of_int (i * Pm.page_size)) in
    let mfn = Pm.alloc_page t.env.Env.mem in
    Pt.map t.env.Env.mem ~cr3_mfn:cr3 ~vaddr:va ~mfn ~writable:true ~user
      ~alloc:(fun () -> Pm.alloc_page t.env.Env.mem)
      ();
    if not user then t.kernel_pages <- (va, mfn) :: t.kernel_pages
  done;
  String.iteri
    (fun i c ->
      let va = Int64.add base (Int64.of_int i) in
      match Pt.probe t.env.Env.mem ~cr3_mfn:cr3 ~vaddr:va with
      | Some mfn ->
        Pm.write8 t.env.Env.mem
          (Pm.paddr_of_mfn mfn + Int64.to_int (Int64.logand va (Int64.of_int Pm.page_mask)))
          (Char.code c)
      | None -> assert false)
    img.Ptl_isa.Asm.code

(* Allocate [n] bytes of kernel heap (guest VA, page granular pool). *)
let kheap_alloc t n =
  let n = Ptl_util.Bitops.align_up n 64 in
  if Int64.add t.kheap_next (Int64.of_int n) > t.kheap_end then
    raise (Kernel_panic "kernel heap exhausted");
  let va = t.kheap_next in
  t.kheap_next <- Int64.add t.kheap_next (Int64.of_int n);
  va

(* Physical address behind a kernel-heap VA (kheap is mapped in every
   address space, so translation through kernel_cr3 is authoritative). *)
let kva_paddr t va =
  match Pt.probe t.env.Env.mem ~cr3_mfn:t.kernel_cr3 ~vaddr:va with
  | Some mfn ->
    Pm.paddr_of_mfn mfn + Int64.to_int (Int64.logand va (Int64.of_int Pm.page_mask))
  | None -> raise (Kernel_panic "unmapped kernel VA")

(* ---- construction ---- *)

let create ?(config = default_config) env ctx =
  let layout = Kbuild.build () in
  let stats = env.Env.stats in
  let t =
    {
      env;
      ctx;
      config;
      layout;
      fs = Ramfs.create ();
      programs = Hashtbl.create 8;
      procs = [];
      next_pid = 1;
      current = None;
      runqueue = Queue.create ();
      events = [];
      next_event_cycle = max_int;
      jiffies = 0;
      kernel_cr3 = Pm.alloc_page env.Env.mem;
      kernel_pages = [];
      kheap_next = Abi.kheap_base;
      kheap_end = Int64.add Abi.kheap_base (Int64.of_int (config.kheap_pages * Pm.page_size));
      sockets = [];
      next_sock = 1;
      shutdown = false;
      scratch = 0L;
      vm =
        (if config.demand_paging then begin
           let vm =
             Vm.create ~shootdown_vec:Abi.vec_shootdown
               ~watermark:config.vm_watermark ~batch:config.vm_batch
               ~mem:env.Env.mem stats
           in
           Vm.attach_ctx vm ctx;
           Some vm
         end
         else None);
      on_marker = (fun _ -> ());
      c_syscalls = Stats.counter stats "kernel.syscalls";
      c_switches = Stats.counter stats "kernel.context_switches";
      c_timer_ticks = Stats.counter stats "kernel.timer_ticks";
      c_disk_reads = Stats.counter stats "kernel.disk_reads";
      c_packets = Stats.counter stats "kernel.packets";
      c_page_ins = Stats.counter stats "kernel.page_ins";
    }
  in
  (* kernel image + boot stack + kernel heap, all supervisor-only *)
  load_image t ~cr3:t.kernel_cr3 layout.Kbuild.image ~user:false;
  alloc_mapped t ~cr3:t.kernel_cr3 ~vaddr:Abi.kstack_base
    ~npages:Abi.kstack_pages ~user:false;
  alloc_mapped t ~cr3:t.kernel_cr3 ~vaddr:Abi.kheap_base ~npages:config.kheap_pages
    ~user:false;
  t

let register_program t ~name image = Hashtbl.replace t.programs name image

let add_file t ~name ~contents = Ramfs.add_file t.fs ~name ~contents

let find_proc t pid = List.find_opt (fun p -> p.pid = pid) t.procs

let exit_codes t =
  List.sort compare
    (List.filter_map
       (fun p -> if p.state = Zombie then Some (p.pid, p.exit_code) else None)
       t.procs)

(* ---- context switching ---- *)

let boot_kstack_top = Int64.add Abi.kstack_base (Int64.of_int (Abi.kstack_pages * Pm.page_size))

let apply_resume t (p : proc) =
  let ctx = t.ctx in
  ctx.Context.cr3 <- p.cr3;
  Context.flush_tlbs ctx;
  ctx.Context.kernel_rsp <- p.kstack_top;
  ctx.Context.running <- true;
  match p.resume with
  | R_fresh { entry; user_rsp; arg } ->
    Array.fill ctx.Context.regs 0 (Array.length ctx.Context.regs) 0L;
    Context.set_gpr ctx Regs.rdi arg;
    Context.set_gpr ctx Regs.rsp user_rsp;
    ctx.Context.mode <- Context.User;
    ctx.Context.flags <- Ptl_isa.Flags.set_if true Ptl_isa.Flags.empty;
    ctx.Context.rip <- entry
  | R_kstack krsp ->
    ctx.Context.mode <- Context.Kernel;
    Context.set_gpr ctx Regs.rsp krsp;
    ctx.Context.rip <- t.layout.Kbuild.l_timer_resume
  | R_syscall regs | R_sysret { regs; _ } ->
    Array.blit regs 0 ctx.Context.regs 0 (Array.length regs);
    ctx.Context.mode <- Context.Kernel;
    (match p.resume with
    | R_sysret { rax; _ } ->
      Context.set_gpr ctx Regs.rax rax;
      ctx.Context.rip <- t.layout.Kbuild.l_sysret
    | R_syscall _ ->
      (* re-execute the kcall (not the entry pushes: rsp already holds
         the saved rcx/r11 frame) *)
      ctx.Context.rip <- t.layout.Kbuild.l_syscall_kcall
    | _ -> assert false)

let switch_to_idle t =
  let ctx = t.ctx in
  t.current <- None;
  ctx.Context.cr3 <- t.kernel_cr3;
  Context.flush_tlbs ctx;
  ctx.Context.mode <- Context.Kernel;
  ctx.Context.kernel_rsp <- boot_kstack_top;
  Context.set_gpr ctx Regs.rsp boot_kstack_top;
  ctx.Context.flags <- Ptl_isa.Flags.set_if true t.ctx.Context.flags;
  ctx.Context.rip <- t.layout.Kbuild.l_idle;
  ctx.Context.running <- true

let switch_to t (p : proc) =
  Stats.incr t.c_switches;
  p.state <- Running;
  p.ticks_run <- 0;
  t.current <- Some p;
  apply_resume t p

(* Pick the next runnable process, or idle. *)
let schedule t =
  match Queue.take_opt t.runqueue with
  | Some pid ->
    (match find_proc t pid with
    | Some p when p.state = Ready -> switch_to t p
    | _ -> switch_to_idle t)
  | None -> switch_to_idle t

let make_ready t (p : proc) =
  if p.state <> Ready && p.state <> Running then begin
    p.state <- Ready;
    Queue.push p.pid t.runqueue
  end

(* Wake a blocked process and, if the CPU is idle, nudge it with the I/O
   interrupt so the hlt loop breaks. *)
let wake t (p : proc) =
  if p.state = Blocked then begin
    make_ready t p;
    Context.raise_irq t.ctx Abi.vec_io
  end

(* ---- process lifecycle ---- *)

let spawn t ~name =
  match Hashtbl.find_opt t.programs name with
  | None -> None
  | Some img ->
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    let cr3 = Pm.alloc_page t.env.Env.mem in
    (* per-process kernel stack lives in the shared kernel region *)
    let kstack_va =
      Int64.add Abi.kstack_base (Int64.mul (Int64.of_int pid) Abi.kstack_stride)
    in
    alloc_mapped t ~cr3:t.kernel_cr3 ~vaddr:kstack_va ~npages:Abi.kstack_pages
      ~user:false;
    map_kernel_into t ~cr3;
    (* refresh older address spaces with the new kernel stack pages *)
    List.iter (fun p -> map_kernel_into t ~cr3:p.cr3) t.procs;
    (match t.vm with
    | Some vm ->
      (* demand paging: register VMAs only; every user page — code
         included — is populated by the first #PF through pf_entry *)
      let base = img.Ptl_isa.Asm.img_base in
      let first = Int64.to_int (Int64.logand base (Int64.of_int Pm.page_mask)) in
      let len = String.length img.Ptl_isa.Asm.code in
      let npages = (first + len + Pm.page_size - 1) / Pm.page_size in
      Vm.add_vma vm ~cr3 ~start:(Int64.sub base (Int64.of_int first))
        ~pages:npages ~writable:true
        ~backing:(Vm.Image { bytes = img.Ptl_isa.Asm.code; base });
      Vm.add_vma vm ~cr3
        ~start:
          (Int64.sub Abi.user_stack_top
             (Int64.of_int (Abi.user_stack_pages * Pm.page_size)))
        ~pages:Abi.user_stack_pages ~writable:true ~backing:Vm.Zero;
      Vm.add_vma vm ~cr3 ~start:Abi.user_heap_base ~pages:Abi.user_heap_pages
        ~writable:true ~backing:Vm.Zero;
      (* Pre-populate the top stack page: the kernel-mode launch stub
         pushes the first-entry iret frame onto the user stack, where a
         #PF could not be delivered (no user frame to switch from). Real
         kernels also populate the initial stack eagerly (args/env). *)
      ignore
        (Vm.handle_fault vm t.ctx ~cr3 ~vaddr:(Int64.sub Abi.user_stack_top 8L)
           ~write:true)
    | None ->
      load_image t ~cr3 img ~user:true;
      alloc_mapped t ~cr3
        ~vaddr:
          (Int64.sub Abi.user_stack_top
             (Int64.of_int (Abi.user_stack_pages * Pm.page_size)))
        ~npages:Abi.user_stack_pages ~user:true;
      alloc_mapped t ~cr3 ~vaddr:Abi.user_heap_base ~npages:Abi.user_heap_pages
        ~user:true);
    let p =
      {
        pid;
        pname = name;
        cr3;
        kstack_top = Int64.add kstack_va (Int64.of_int (Abi.kstack_pages * Pm.page_size));
        state = Blocked;
        resume =
          R_fresh
            { entry = img.Ptl_isa.Asm.img_base; user_rsp = Abi.user_stack_top; arg = 0L };
        fds = Array.make 16 None;
        exit_code = 0;
        ticks_run = 0;
        pending_commit = None;
      }
    in
    t.procs <- t.procs @ [ p ];
    make_ready t p;
    Some p

(* Children inherit the parent's descriptors (reference counts updated
   for pipe endpoints). *)
let inherit_fds (parent : proc) (child : proc) =
  Array.iteri
    (fun i obj ->
      child.fds.(i) <- obj;
      match obj with
      | Some (F_pipe_r pi) -> pi.p_readers <- pi.p_readers + 1
      | Some (F_pipe_w pi) -> pi.p_writers <- pi.p_writers + 1
      | Some (F_sock sock) -> sock.sock_refs <- sock.sock_refs + 1
      | Some (F_file _) | None -> ())
    parent.fds

(* ---- blocking and waking ---- *)

let snapshot_regs t = Array.copy t.ctx.Context.regs

(* Block the current process inside a syscall; the syscall re-dispatches
   when the process is next scheduled. *)
let block_current t =
  match t.current with
  | None -> raise (Kernel_panic "block with no current process")
  | Some p ->
    p.state <- Blocked;
    p.resume <- R_syscall (snapshot_regs t);
    schedule t

(* Wake every process blocked in a retryable syscall (robust wake-all
   strategy; unsatisfied processes simply re-block). Disk waiters are
   woken by their completion events only. *)
let wake_all t =
  List.iter
    (fun p ->
      match (p.state, p.resume) with
      | Blocked, R_syscall _ -> wake t p
      | _ -> ())
    t.procs

(* ---- fd helpers ---- *)

let alloc_fd (p : proc) obj =
  let rec go i =
    if i >= Array.length p.fds then None
    else if p.fds.(i) = None then begin
      p.fds.(i) <- Some obj;
      Some i
    end
    else go (i + 1)
  in
  go 0

let fd_obj (p : proc) fd =
  if fd < 0 || fd >= Array.length p.fds then None else p.fds.(fd)

(* Pre-resolve demand faults for a user range a host-side service is
   about to dereference — the kernel's copyin/copyout pin step. Guest
   copy loops need none of this (their accesses fault through pf_entry);
   only the few host-side reads/writes of user pointers do. *)
let touch_user t (p : proc) vaddr ~len ~write =
  match t.vm with
  | None -> ()
  | Some vm ->
    let first = Int64.logand vaddr (Int64.lognot (Int64.of_int Pm.page_mask)) in
    let last =
      Int64.logand
        (Int64.add vaddr (Int64.of_int (max 0 (len - 1))))
        (Int64.lognot (Int64.of_int Pm.page_mask))
    in
    let va = ref first in
    while !va <= last do
      ignore (Vm.handle_fault vm t.ctx ~cr3:p.cr3 ~vaddr:!va ~write);
      va := Int64.add !va (Int64.of_int Pm.page_size)
    done

(* read a NUL-terminated string from user memory *)
let user_string t vaddr =
  (match t.current with
  | Some p -> touch_user t p vaddr ~len:256 ~write:false
  | None -> ());
  let buf = Buffer.create 32 in
  let rec go va =
    let b =
      Int64.to_int
        (Vmem.read t.env.Env.vmem t.ctx ~vaddr:va ~size:W64.B1 ~at_rip:0L)
    in
    if b <> 0 && Buffer.length buf < 255 then begin
      Buffer.add_char buf (Char.chr b);
      go (Int64.add va 1L)
    end
  in
  go vaddr;
  Buffer.contents buf

(* ---- syscall return paths ---- *)

let sysret t rax =
  Context.set_gpr t.ctx Regs.rax rax;
  t.ctx.Context.rip <- t.layout.Kbuild.l_sysret

(* Launch a guest copy loop that returns to user mode when done.
   [commit] runs at the commit kcall and produces the final rax. *)
let guest_copy t ~src ~dst ~len ~commit =
  match t.current with
  | None -> raise (Kernel_panic "guest_copy with no process")
  | Some p ->
    p.pending_commit <- Some commit;
    Context.set_gpr t.ctx Regs.rsi src;
    Context.set_gpr t.ctx Regs.rdi dst;
    Context.set_gpr t.ctx Regs.rcx (Int64.of_int len);
    t.ctx.Context.rip <- t.layout.Kbuild.l_copy_commit_ret

(* Same, through the checksum (transmit) path. *)
let guest_csum_copy t ~src ~dst ~len ~commit =
  match t.current with
  | None -> raise (Kernel_panic "guest_csum_copy with no process")
  | Some p ->
    p.pending_commit <- Some commit;
    Context.set_gpr t.ctx Regs.rsi src;
    Context.set_gpr t.ctx Regs.rdi dst;
    Context.set_gpr t.ctx Regs.rcx (Int64.of_int len);
    Context.set_gpr t.ctx Regs.r11 (Int64.of_int len);
    t.ctx.Context.rip <- t.layout.Kbuild.l_csum_copy_commit_ret

(* Plain copy with a pre-set return value (page-cache reads, dirents). *)
let guest_copy_simple t ~src ~dst ~len ~rax =
  Context.set_gpr t.ctx Regs.rsi src;
  Context.set_gpr t.ctx Regs.rdi dst;
  Context.set_gpr t.ctx Regs.rcx (Int64.of_int len);
  Context.set_gpr t.ctx Regs.rax rax;
  t.ctx.Context.rip <- t.layout.Kbuild.l_copy_ret

(* ---- files ---- *)

(* Ensure block [blk] of [file] is in the page cache. Returns [`Ready va]
   or blocks the caller on the disk and returns [`Blocked]. The cache slot
   is published only when the DMA completes, so early wake-ups retry and
   re-block instead of reading unfilled pages; the pending list prevents a
   duplicate disk request. *)
let ensure_block t (p : proc) (file : Ramfs.file) blk ~for_write =
  Ramfs.ensure_blocks file blk;
  if Ramfs.block_resident file blk then
    `Ready (Int64.of_int file.Ramfs.cache_paddr.(blk))
  else if List.mem blk file.Ramfs.pending_blocks then begin
    (* someone already requested this block; wait for it *)
    block_current t;
    `Blocked
  end
  else if for_write && blk * Ramfs.block_size >= file.Ramfs.size then begin
    (* fresh block past EOF: a zeroed page, no disk read needed *)
    let va = kheap_alloc t Pm.page_size in
    file.Ramfs.cache_paddr.(blk) <- Int64.to_int va;
    `Ready va
  end
  else begin
    Stats.incr t.c_disk_reads;
    let va = kheap_alloc t Pm.page_size in
    file.Ramfs.pending_blocks <- blk :: file.Ramfs.pending_blocks;
    post t
      ~at:(t.env.Env.cycle + t.config.disk_latency)
      (E_disk_done { pid = p.pid; file; blk; va });
    block_current t;
    `Blocked
  end

(* ---- pipes ---- *)

let pipe_capacity = 16 * 1024

let make_pipe t =
  {
    p_ring_va = kheap_alloc t pipe_capacity;
    p_cap = pipe_capacity;
    p_r = 0;
    p_w = 0;
    p_readers = 1;
    p_writers = 1;
  }

let svc_read_pipe t (pi : pipe) ~buf ~len =
  let avail = pi.p_w - pi.p_r in
  if avail = 0 then begin
    if pi.p_writers = 0 then sysret t 0L (* EOF *) else block_current t
  end
  else begin
    let roff = pi.p_r mod pi.p_cap in
    let n = min (min len avail) (pi.p_cap - roff) in
    guest_copy t
      ~src:(Int64.add pi.p_ring_va (Int64.of_int roff))
      ~dst:buf ~len:n
      ~commit:(fun () ->
        pi.p_r <- pi.p_r + n;
        wake_all t;
        Int64.of_int n)
  end

let svc_write_pipe t (pi : pipe) ~buf ~len =
  if pi.p_readers = 0 then sysret t (Int64.of_int Abi.e_inval)
  else begin
    let space = pi.p_cap - (pi.p_w - pi.p_r) in
    if space = 0 then block_current t
    else begin
      let woff = pi.p_w mod pi.p_cap in
      let n = min (min len space) (pi.p_cap - woff) in
      guest_copy t ~src:buf
        ~dst:(Int64.add pi.p_ring_va (Int64.of_int woff))
        ~len:n
        ~commit:(fun () ->
          pi.p_w <- pi.p_w + n;
          wake_all t;
          Int64.of_int n)
    end
  end

(* ---- sockets ---- *)

let channel_capacity = 64 * 1024

let make_channel t =
  {
    ch_ring_va = kheap_alloc t channel_capacity;
    ch_cap = channel_capacity;
    ch_r = 0;
    ch_w = 0;
    ch_delivered = 0;
    ch_in_flight = 0;
    ch_closed = false;
  }

let make_socket t =
  let s =
    {
      sock_id = t.next_sock;
      sock_refs = 0;
      sock_port = -1;
      sock_listening = false;
      sock_backlog = [];
      sock_tx = None;
      sock_rx = None;
    }
  in
  t.next_sock <- t.next_sock + 1;
  t.sockets <- s :: t.sockets;
  s

let find_socket t id = List.find_opt (fun s -> s.sock_id = id) t.sockets

let svc_read_sock t (s : socket) ~buf ~len =
  match s.sock_rx with
  | None -> sysret t (Int64.of_int Abi.e_inval)
  | Some ch ->
    let avail = ch.ch_delivered - ch.ch_r in
    if avail = 0 then begin
      if ch.ch_closed && ch.ch_in_flight = 0 && ch.ch_w = ch.ch_delivered then
        sysret t 0L
      else block_current t
    end
    else begin
      let roff = ch.ch_r mod ch.ch_cap in
      let n = min (min len avail) (ch.ch_cap - roff) in
      guest_copy t
        ~src:(Int64.add ch.ch_ring_va (Int64.of_int roff))
        ~dst:buf ~len:n
        ~commit:(fun () ->
          ch.ch_r <- ch.ch_r + n;
          wake_all t;
          Int64.of_int n)
    end

(* Segment [n] freshly written bytes into MTU packets with per-packet
   delivery latency — the time-dilation-correct network model (§4.2). *)
let schedule_delivery t (ch : channel) n =
  let mtu = t.config.net_mtu in
  let rec go off k =
    if off < n then begin
      let chunk = min mtu (n - off) in
      Stats.incr t.c_packets;
      ch.ch_in_flight <- ch.ch_in_flight + chunk;
      post t
        ~at:(t.env.Env.cycle + t.config.net_latency + (k * (t.config.net_latency / 4)))
        (E_net_deliver { ch; bytes = chunk });
      go (off + chunk) (k + 1)
    end
  in
  go 0 0

let svc_write_sock t (s : socket) ~buf ~len =
  match s.sock_tx with
  | None -> sysret t (Int64.of_int Abi.e_inval)
  | Some ch ->
    if ch.ch_closed then sysret t (Int64.of_int Abi.e_inval)
    else begin
      let space = ch.ch_cap - (ch.ch_w - ch.ch_r) in
      if space = 0 then block_current t
      else begin
        let woff = ch.ch_w mod ch.ch_cap in
        let n = min (min len space) (ch.ch_cap - woff) in
        guest_csum_copy t ~src:buf
          ~dst:(Int64.add ch.ch_ring_va (Int64.of_int woff))
          ~len:n
          ~commit:(fun () ->
            ch.ch_w <- ch.ch_w + n;
            schedule_delivery t ch n;
            Int64.of_int n)
      end
    end

(* ---- syscall dispatch ---- *)

(* kernel scratch buffer for small metadata copies (dirents, stat) *)
let scratch_va t =
  if t.scratch = 0L then t.scratch <- kheap_alloc t 256;
  t.scratch

let write_scratch t bytes =
  let va = scratch_va t in
  let paddr = kva_paddr t va in
  String.iteri (fun i c -> Pm.write8 t.env.Env.mem (paddr + i) (Char.code c)) bytes;
  va

let close_fd t (p : proc) fd =
  match fd_obj p fd with
  | None -> Int64.of_int Abi.e_badf
  | Some obj ->
    p.fds.(fd) <- None;
    (match obj with
    | F_pipe_r pi ->
      pi.p_readers <- pi.p_readers - 1;
      wake_all t
    | F_pipe_w pi ->
      pi.p_writers <- pi.p_writers - 1;
      wake_all t
    | F_sock s ->
      s.sock_refs <- s.sock_refs - 1;
      if s.sock_refs <= 0 then begin
        Option.iter (fun ch -> ch.ch_closed <- true) s.sock_tx;
        Option.iter (fun ch -> ch.ch_closed <- true) s.sock_rx
      end;
      wake_all t
    | F_file _ -> ());
    0L

let dirent_bytes ~size ~name =
  let b = Buffer.create 32 in
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (W64.byte (Int64.of_int size) i))
  done;
  Buffer.add_string b name;
  Buffer.add_char b '\x00';
  Buffer.contents b

let svc_exit t (p : proc) code =
  p.state <- Zombie;
  p.exit_code <- code;
  (* drop all fds so pipe/socket peers see EOF *)
  Array.iteri (fun fd obj -> if obj <> None then ignore (close_fd t p fd)) p.fds;
  wake_all t;
  if List.for_all (fun q -> q.state = Zombie) t.procs then t.shutdown <- true;
  schedule t

let dispatch_syscall t =
  match t.current with
  | None -> raise (Kernel_panic "syscall with no current process")
  | Some p ->
    Stats.incr t.c_syscalls;
    let ctx = t.ctx in
    let nr = Int64.to_int (Context.gpr ctx Regs.rax) in
    let a1 = Context.gpr ctx Regs.rdi in
    let a2 = Context.gpr ctx Regs.rsi in
    let a3 = Context.gpr ctx Regs.rdx in
    let err e = sysret t (Int64.of_int e) in
    if nr = Abi.sys_exit then svc_exit t p (Int64.to_int a1)
    else if nr = Abi.sys_read then begin
      let fd = Int64.to_int a1 and buf = a2 and len = Int64.to_int a3 in
      if len <= 0 then sysret t 0L
      else
        match fd_obj p fd with
        | None -> err Abi.e_badf
        | Some (F_file h) ->
          let file = h.file and pos = h.pos in
          if pos >= file.Ramfs.size then sysret t 0L
          else begin
            (* advance the position eagerly by the amount we will return *)
            let blk = pos / Ramfs.block_size in
            let off = pos mod Ramfs.block_size in
            let n = min (min len (file.Ramfs.size - pos)) (Ramfs.block_size - off) in
            match ensure_block t p file blk ~for_write:false with
            | `Blocked -> ()
            | `Ready va ->
              h.pos <- pos + n;
              guest_copy_simple t
                ~src:(Int64.add va (Int64.of_int off))
                ~dst:buf ~len:n ~rax:(Int64.of_int n)
          end
        | Some (F_pipe_r pi) -> svc_read_pipe t pi ~buf ~len
        | Some (F_pipe_w _) -> err Abi.e_badf
        | Some (F_sock s) -> svc_read_sock t s ~buf ~len
    end
    else if nr = Abi.sys_write then begin
      let fd = Int64.to_int a1 and buf = a2 and len = Int64.to_int a3 in
      if len <= 0 then sysret t 0L
      else
        match fd_obj p fd with
        | None -> err Abi.e_badf
        | Some (F_file h) when h.writable ->
          let file = h.file and pos = h.pos in
          let blk = pos / Ramfs.block_size in
          let off = pos mod Ramfs.block_size in
          let n = min len (Ramfs.block_size - off) in
          (match ensure_block t p file blk ~for_write:true with
          | `Blocked -> ()
          | `Ready va ->
            h.pos <- pos + n;
            let mem = t.env.Env.mem in
            let paddr = kva_paddr t va in
            guest_copy t ~src:buf ~dst:(Int64.add va (Int64.of_int off)) ~len:n
              ~commit:(fun () ->
                Ramfs.writeback_block mem file blk ~paddr ~upto:(off + n);
                wake_all t;
                Int64.of_int n))
        | Some (F_file _) -> err Abi.e_badf
        | Some (F_pipe_w pi) -> svc_write_pipe t pi ~buf ~len
        | Some (F_pipe_r _) -> err Abi.e_badf
        | Some (F_sock s) -> svc_write_sock t s ~buf ~len
    end
    else if nr = Abi.sys_open then begin
      let name = user_string t a1 in
      let flags = Int64.to_int a2 in
      if flags land Abi.o_creat <> 0 then Ramfs.creat t.fs name;
      match Ramfs.find t.fs name with
      | None -> err Abi.e_noent
      | Some file ->
        (match
           alloc_fd p (F_file { file; pos = 0; writable = flags land Abi.o_wronly <> 0 })
         with
        | Some fd -> sysret t (Int64.of_int fd)
        | None -> err Abi.e_inval)
    end
    else if nr = Abi.sys_creat then begin
      let name = user_string t a1 in
      Ramfs.creat t.fs name;
      match Ramfs.find t.fs name with
      | None -> err Abi.e_noent
      | Some file ->
        (match alloc_fd p (F_file { file; pos = 0; writable = true }) with
        | Some fd -> sysret t (Int64.of_int fd)
        | None -> err Abi.e_inval)
    end
    else if nr = Abi.sys_close then sysret t (close_fd t p (Int64.to_int a1))
    else if nr = Abi.sys_pipe then begin
      let pi = make_pipe t in
      match alloc_fd p (F_pipe_r pi) with
      | None -> err Abi.e_inval
      | Some rfd ->
        (match alloc_fd p (F_pipe_w pi) with
        | None ->
          p.fds.(rfd) <- None;
          err Abi.e_inval
        | Some wfd ->
          (* write the two fds to the user pointer in a1 *)
          touch_user t p a1 ~len:8 ~write:true;
          Vmem.write t.env.Env.vmem ctx ~vaddr:a1 ~size:W64.B4
            ~value:(Int64.of_int rfd) ~at_rip:0L;
          Vmem.write t.env.Env.vmem ctx ~vaddr:(Int64.add a1 4L) ~size:W64.B4
            ~value:(Int64.of_int wfd) ~at_rip:0L;
          sysret t 0L)
    end
    else if nr = Abi.sys_spawn then begin
      let name = user_string t a1 in
      match spawn t ~name with
      | Some child ->
        (* the spawn argument lands in the child's rdi on first entry *)
        (match child.resume with
        | R_fresh r -> r.arg <- a2
        | _ -> ());
        inherit_fds p child;
        sysret t (Int64.of_int child.pid)
      | None -> err Abi.e_noent
    end
    else if nr = Abi.sys_waitpid then begin
      let pid = Int64.to_int a1 in
      match find_proc t pid with
      | None -> err Abi.e_child
      | Some q when q.state = Zombie ->
        t.procs <- List.filter (fun r -> r.pid <> pid) t.procs;
        sysret t (Int64.of_int q.exit_code)
      | Some _ -> block_current t
    end
    else if nr = Abi.sys_sleep then begin
      let cycles = Int64.to_int a1 in
      p.state <- Blocked;
      p.resume <- R_sysret { regs = snapshot_regs t; rax = 0L };
      post t ~at:(t.env.Env.cycle + max 1 cycles) (E_wake p.pid);
      schedule t
    end
    else if nr = Abi.sys_socket then begin
      let s = make_socket t in
      match alloc_fd p (F_sock s) with
      | Some fd ->
        s.sock_refs <- s.sock_refs + 1;
        sysret t (Int64.of_int fd)
      | None -> err Abi.e_inval
    end
    else if nr = Abi.sys_listen then begin
      match fd_obj p (Int64.to_int a1) with
      | Some (F_sock s) ->
        s.sock_port <- Int64.to_int a2;
        s.sock_listening <- true;
        wake_all t;
        sysret t 0L
      | _ -> err Abi.e_badf
    end
    else if nr = Abi.sys_accept then begin
      match fd_obj p (Int64.to_int a1) with
      | Some (F_sock s) when s.sock_listening -> (
        match s.sock_backlog with
        | [] -> block_current t
        | peer_id :: rest -> (
          s.sock_backlog <- rest;
          match find_socket t peer_id with
          | None -> err Abi.e_inval
          | Some conn -> (
            match alloc_fd p (F_sock conn) with
            | Some fd ->
              conn.sock_refs <- conn.sock_refs + 1;
              sysret t (Int64.of_int fd)
            | None -> err Abi.e_inval)))
      | _ -> err Abi.e_badf
    end
    else if nr = Abi.sys_connect then begin
      match fd_obj p (Int64.to_int a1) with
      | Some (F_sock s) -> (
        let port = Int64.to_int a2 in
        let listener =
          List.find_opt (fun l -> l.sock_listening && l.sock_port = port) t.sockets
        in
        match listener with
        | None -> err Abi.e_again
        | Some l ->
          (* build the two directional channels and the acceptor's endpoint *)
          let c2s = make_channel t in
          let s2c = make_channel t in
          s.sock_tx <- Some c2s;
          s.sock_rx <- Some s2c;
          let server_end = make_socket t in
          server_end.sock_tx <- Some s2c;
          server_end.sock_rx <- Some c2s;
          l.sock_backlog <- l.sock_backlog @ [ server_end.sock_id ];
          wake_all t;
          sysret t 0L)
      | _ -> err Abi.e_badf
    end
    else if nr = Abi.sys_getpid then sysret t (Int64.of_int p.pid)
    else if nr = Abi.sys_readdir then begin
      let prefix = user_string t a1 in
      let index = Int64.to_int a2 in
      let entries = Ramfs.list_dir t.fs ~prefix in
      match List.nth_opt entries index with
      | None -> sysret t (-1L)
      | Some name ->
        let size = Option.value ~default:0 (Ramfs.size t.fs name) in
        let bytes = dirent_bytes ~size ~name in
        let va = write_scratch t bytes in
        guest_copy_simple t ~src:va ~dst:a3 ~len:(String.length bytes)
          ~rax:(Int64.of_int (String.length bytes))
    end
    else if nr = Abi.sys_stat then begin
      let name = user_string t a1 in
      match Ramfs.size t.fs name with
      | None -> err Abi.e_noent
      | Some size ->
        let bytes = String.init 8 (fun i -> Char.chr (W64.byte (Int64.of_int size) i)) in
        let va = write_scratch t bytes in
        guest_copy_simple t ~src:va ~dst:a2 ~len:8 ~rax:0L
    end
    else if nr = Abi.sys_yield then begin
      p.resume <- R_sysret { regs = snapshot_regs t; rax = 0L };
      make_ready t p;
      p.state <- Ready;
      schedule t
    end
    else if nr = Abi.sys_poll2 then begin
      let readable fd =
        match fd_obj p fd with
        | Some (F_pipe_r pi) -> pi.p_w - pi.p_r > 0 || pi.p_writers = 0
        | Some (F_sock s) -> (
          match s.sock_rx with
          | Some ch ->
            ch.ch_delivered - ch.ch_r > 0
            || (ch.ch_closed && ch.ch_in_flight = 0 && ch.ch_w = ch.ch_delivered)
          | None -> false)
        | Some (F_file _) -> true
        | Some (F_pipe_w _) | None -> false
      in
      let fd0 = Int64.to_int a1 and fd1 = Int64.to_int a2 in
      if readable fd0 then sysret t 0L
      else if readable fd1 then sysret t 1L
      else block_current t
    end
    else if nr = Abi.sys_seek then begin
      match fd_obj p (Int64.to_int a1) with
      | Some (F_file h) ->
        h.pos <- Int64.to_int a2;
        sysret t 0L
      | _ -> err Abi.e_badf
    end
    else if nr = Abi.sys_ptl_marker then begin
      let n = Int64.to_int a1 in
      t.on_marker n;
      if n = 999 then t.shutdown <- true;
      sysret t 0L
    end
    else err Abi.e_inval

(* ---- interrupt-path handlers ---- *)

(* Timer tick (kcall from the timer handler, after the run-queue scan).
   ctx.rsp is the current kernel stack below 15 saved registers; parking
   the process is just remembering that rsp. *)
let handle_timer t =
  Stats.incr t.c_timer_ticks;
  t.jiffies <- t.jiffies + 1;
  match t.current with
  | None ->
    (* the timer interrupted the idle loop *)
    if not (Queue.is_empty t.runqueue) then schedule t
  | Some p ->
    p.ticks_run <- p.ticks_run + 1;
    if p.ticks_run >= t.config.timeslice_ticks && not (Queue.is_empty t.runqueue)
    then begin
      p.resume <- R_kstack (Context.gpr t.ctx Regs.rsp);
      p.state <- Ready;
      Queue.push p.pid t.runqueue;
      schedule t
    end
(* otherwise return through the restore path into the same process *)

(* I/O completion interrupt: wake-ups already happened in [poll]; if the
   CPU was idle, pick up the newly runnable work. *)
let handle_io t =
  match t.current with
  | None -> if not (Queue.is_empty t.runqueue) then schedule t
  | Some _ -> ()

(* A guest fault reached the kernel (vector 0/6/13/14). User-mode bugs
   kill the process; kernel-mode faults are simulator bugs. *)
let handle_fault t =
  match t.current with
  | None -> raise (Kernel_panic "fault in idle/kernel context")
  | Some p ->
    Logs.debug (fun m ->
        let rd off =
          try
            Vmem.read t.env.Env.vmem t.ctx
              ~vaddr:(Int64.add (Context.gpr t.ctx Regs.rsp) (Int64.of_int off))
              ~size:W64.B8 ~at_rip:0L
          with _ -> -1L
        in
        m "fault frame: err=%Ld rip=%Ld(%#Lx) mode=%Ld flags=%Lx rsp=%Lx | regs rax=%Lx rbx=%Lx rcx=%Lx rdx=%Lx rsi=%Lx rdi=%Lx rbp=%Lx r12=%Lx r13=%Lx r14=%Lx r15=%Lx"
          (rd 0) (rd 8) (rd 8) (rd 16) (rd 24) (rd 32)
          (Context.gpr t.ctx Regs.rax) (Context.gpr t.ctx Regs.rbx)
          (Context.gpr t.ctx Regs.rcx) (Context.gpr t.ctx Regs.rdx)
          (Context.gpr t.ctx Regs.rsi) (Context.gpr t.ctx Regs.rdi)
          (Context.gpr t.ctx Regs.rbp) (Context.gpr t.ctx Regs.r12)
          (Context.gpr t.ctx Regs.r13) (Context.gpr t.ctx Regs.r14)
          (Context.gpr t.ctx Regs.r15));
    Logs.warn (fun m ->
        m "minios: killing pid %d (%s) after fault (frame rip=%#Lx cr2=%#Lx)" p.pid
          p.pname
          (try
             Vmem.read t.env.Env.vmem t.ctx
               ~vaddr:(Int64.add (Context.gpr t.ctx Regs.rsp) 8L)
               ~size:W64.B8 ~at_rip:0L
           with _ -> -1L)
          t.ctx.Context.cr2);
    svc_exit t p (-1)

(* #PF delivered through the guest pf_entry: below the 15 saved GPRs the
   frame is [errcode][rip][mode][flags][rsp]. Demand paging resolves
   first-touch faults (the iret then restarts the faulting instruction);
   anything unresolvable kills the process like the generic fault path. *)
let pf_frame_err_off = 15 * 8

let handle_pf t =
  match t.current with
  | None -> raise (Kernel_panic "page fault in idle/kernel context")
  | Some p ->
    let vaddr = t.ctx.Context.cr2 in
    let err =
      try
        Vmem.read t.env.Env.vmem t.ctx
          ~vaddr:
            (Int64.add (Context.gpr t.ctx Regs.rsp)
               (Int64.of_int pf_frame_err_off))
          ~size:W64.B8 ~at_rip:0L
      with _ -> 0L
    in
    let write = Int64.logand err 2L <> 0L in
    let resolved =
      match t.vm with
      | Some vm -> Vm.handle_fault vm t.ctx ~cr3:p.cr3 ~vaddr ~write = Vm.Resolved
      | None -> false
    in
    if not resolved then begin
      Logs.warn (fun m ->
          m "minios: killing pid %d (%s) after unresolved #PF (cr2=%#Lx err=%#Lx)"
            p.pid p.pname vaddr err);
      svc_exit t p (-1)
    end

(* TLB-shootdown IPI acknowledge: the architectural flush of this VCPU's
   translation structures. (The VM layer also flushed at initiation so no
   stale translation is ever consumable; this guest round-trip carries the
   invalidation cost.) *)
let handle_shootdown t = Context.flush_tlbs t.ctx

let handle_commit t =
  match t.current with
  | None -> raise (Kernel_panic "commit kcall with no process")
  | Some p -> (
    match p.pending_commit with
    | None -> raise (Kernel_panic "commit kcall without pending commit")
    | Some f ->
      p.pending_commit <- None;
      Context.set_gpr t.ctx Regs.rax (f ()))

let handle_boot t =
  (* arm the timer and start init *)
  post t ~at:(t.env.Env.cycle + t.config.timer_period) E_timer;
  match spawn t ~name:"init" with
  | Some _ -> schedule t
  | None -> raise (Kernel_panic "no init program registered")

(* ---- the kcall demultiplexer (installed as Env.kcall) ---- *)

let kcall_handler t (ctx : Context.t) =
  let site = ctx.Context.rip in
  let l = t.layout in
  try
    if site = l.Kbuild.s_syscall then dispatch_syscall t
    else if site = l.Kbuild.s_commit then handle_commit t
    else if site = l.Kbuild.s_timer then handle_timer t
    else if site = l.Kbuild.s_io then handle_io t
    else if site = l.Kbuild.s_boot then handle_boot t
    else if site = l.Kbuild.s_fault then handle_fault t
    else if site = l.Kbuild.s_pf then handle_pf t
    else if site = l.Kbuild.s_shootdown then handle_shootdown t
    else raise (Kernel_panic (Printf.sprintf "unknown kcall site %#Lx" site))
  with Ptl_arch.Fault.Guest_fault f ->
    (* a service dereferenced a bad guest pointer (EFAULT analogue):
       kill the offending process rather than crashing the machine *)
    (match t.current with
    | Some p ->
      Logs.warn (fun m ->
          m "minios: killing pid %d (%s): bad pointer in service (%s)" p.pid
            p.pname (Ptl_arch.Fault.to_string f));
      svc_exit t p (-2)
    | None -> raise (Kernel_panic ("fault in kernel service: " ^ Ptl_arch.Fault.to_string f)))

(* ---- event polling (the driver calls this when cycle >= next event) ---- *)

let poll t =
  while t.next_event_cycle <= t.env.Env.cycle do
    match t.events with
    | [] -> t.next_event_cycle <- max_int
    | (_, ev) :: rest ->
      t.events <- rest;
      refresh_next t;
      (match ev with
      | E_timer ->
        Context.raise_irq t.ctx Abi.vec_timer;
        post t ~at:(t.env.Env.cycle + t.config.timer_period) E_timer
      | E_disk_done { pid; file; blk; va } ->
        Stats.incr t.c_page_ins;
        Ramfs.dma_block_in t.env.Env.mem file blk ~paddr:(kva_paddr t va);
        Ramfs.ensure_blocks file blk;
        file.Ramfs.cache_paddr.(blk) <- Int64.to_int va;
        file.Ramfs.pending_blocks <-
          List.filter (fun b -> b <> blk) file.Ramfs.pending_blocks;
        (match find_proc t pid with Some p -> wake t p | None -> ());
        (* others may be waiting on the same block *)
        wake_all t
      | E_net_deliver { ch; bytes } ->
        ch.ch_delivered <- ch.ch_delivered + bytes;
        ch.ch_in_flight <- ch.ch_in_flight - bytes;
        wake_all t
      | E_wake pid -> (
        match find_proc t pid with
        | Some p when p.state = Blocked ->
          make_ready t p;
          Context.raise_irq t.ctx Abi.vec_io
        | _ -> ()))
  done

(* ---- boot ---- *)

(** Install the kernel into the environment and point the VCPU at the
    guest boot code. The caller then drives the core model; the boot
    kcall spawns "init" and switches to it. *)
let boot t =
  t.env.Env.kcall <- kcall_handler t;
  let ctx = t.ctx in
  ctx.Context.cr3 <- t.kernel_cr3;
  Context.flush_tlbs ctx;
  ctx.Context.mode <- Context.Kernel;
  ctx.Context.kernel_rsp <- boot_kstack_top;
  Context.set_gpr ctx Regs.rsp boot_kstack_top;
  ctx.Context.rip <- t.layout.Kbuild.l_boot;
  ctx.Context.running <- true

let is_shutdown t = t.shutdown
