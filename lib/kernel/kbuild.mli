(** Builder for the minios kernel image: real guest code for interrupt
    entry and exit with full register save and restore, the syscall
    dispatcher, copy and checksum loops, the run-queue scan on every
    timer tick, and the idle loop. Host-side services are reached
    through the paravirtual [kcall] instruction, whose return address
    identifies the service. *)

module Asm := Ptl_isa.Asm

(** Resolved addresses the host kernel model needs. *)
type layout = {
  image : Asm.image;
  l_boot : int64;
  l_idle : int64;
  l_syscall_entry : int64;
  l_syscall_kcall : int64;  (* re-entry point for retried syscalls *)
  l_sysret : int64;  (* restore rcx/r11 and sysret *)
  l_copy_ret : int64;  (* rep movsb; sysret *)
  l_copy_commit_ret : int64;  (* rep movsb; kcall commit; sysret *)
  l_csum_copy_commit_ret : int64;  (* checksum; rep movsb; kcall commit *)
  l_timer_resume : int64;  (* pops + iret, for rescheduled processes *)
  l_runqueue : int64;
  (* kcall sites (address immediately after each kcall) *)
  s_boot : int64;
  s_syscall : int64;
  s_timer : int64;
  s_io : int64;
  s_fault : int64;  (* shared by #GP/#DE/#UD entries *)
  s_pf : int64;  (* #PF entry (full frame; demand paging resolves + irets) *)
  s_shootdown : int64;  (* TLB-shootdown IPI acknowledge *)
  s_commit : int64;  (* publish side effects after a guest copy loop *)
}

(** Assemble the kernel image and resolve its entry points and kcall sites. *)
val build : unit -> layout
