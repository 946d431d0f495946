(** The minios guest ABI: syscall numbers, calling convention, memory
    layout and interrupt vectors.

    Calling convention: syscall number in rax, arguments in rdi, rsi, rdx;
    result in rax (negative = error). Syscalls may clobber rax, rcx, r11,
    rsi, rdi and rdx (data-movement syscalls run kernel copy loops in
    those registers). All other registers are preserved.

    Address space layout (per process; the kernel region is mapped
    supervisor-only into every process):
    - kernel image at {!kernel_base}
    - per-process kernel stacks at {!kstack_base} + pid * {!kstack_stride}
    - kernel heap (page cache, socket rings) from {!kheap_base}
    - user program image at {!user_code_base}
    - user heap at {!user_heap_base}
    - user stack top at {!user_stack_top} *)

let kernel_base = 0x10_0000L
let kstack_base = 0x20_0000L
let kstack_stride = 0x1_0000L
let kstack_pages = 4
let kheap_base = 0x400_0000L
let user_code_base = 0x40_0000L
let user_heap_base = 0x1000_0000L
let user_heap_pages = 256
let user_stack_top = 0x7FFF_F000L
let user_stack_pages = 16

(* Interrupt vectors. *)
let vec_timer = 32
let vec_io = 33
let vec_shootdown = 34  (* TLB-shootdown IPI from the VM layer *)

(* Syscall numbers. *)
let sys_exit = 0
let sys_read = 1
let sys_write = 2
let sys_open = 3
let sys_close = 4
let sys_pipe = 5
let sys_spawn = 6
let sys_waitpid = 7
let sys_sleep = 8
let sys_socket = 9
let sys_listen = 10
let sys_accept = 11
let sys_connect = 12
let sys_getpid = 13
let sys_readdir = 14
let sys_stat = 15
let sys_yield = 16
let sys_creat = 17
let sys_ptl_marker = 18  (* benchmark phase marker: forwarded to stats *)
let sys_poll2 = 19  (* block until one of two fds is readable; returns 0/1 *)
let sys_seek = 20  (* set a file descriptor's absolute position *)

(* Errors (returned as negative values in rax). *)
let e_badf = -9
let e_noent = -2
let e_inval = -22
let e_again = -11
let e_child = -10

let o_wronly = 1
let o_creat = 64
