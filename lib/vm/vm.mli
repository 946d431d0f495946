(** The virtual-memory scenario layer: lazily populated address
    spaces, demand-fault resolution, 2M page promotion and splitting,
    watermark-driven CLOCK reclaim with host-side swap, and TLB
    shootdown IPIs. The policy is host-side bookkeeping; every
    guest-visible consequence (faults through the IDT, page-table edits,
    IPIs) is architectural. [promote] and [split] are the paper's
    hugepage mechanics, exercised directly by the tests. *)

module Pm := Ptl_mem.Phys_mem
module Context := Ptl_arch.Context
module Stats := Ptl_stats.Statstree

(** What fills a page of a mapping on first touch: zeroes (anonymous
    heap/stack) or bytes of a program image at [base]. *)
type backing = Zero | Image of { bytes : string; base : int64 }

(** Outcome of a page fault: mapped, outside every VMA, or a write to a
    read-only VMA. *)
type fault_result = Resolved | Unmapped | Prot_violation

(** The VM policy engine of one machine. *)
type t

(** An engine over [mem] counting under [prefix] (default ["vm"]).
    [watermark] bounds resident demand-paged frames (0, the default, is
    unlimited; a floor of 8 applies), [batch] is the evictions per
    reclaim pass, and [shootdown_vec] the IPI vector a shootdown raises
    on remote VCPUs (none when absent). *)
val create :
  ?prefix:string ->
  ?shootdown_vec:int ->
  ?watermark:int -> ?batch:int -> mem:Pm.t -> Stats.t -> t

(** Register a VCPU as a shootdown-IPI target. *)
val attach_ctx : t -> Context.t -> unit

(** Declare a lazily-populated mapping. Overlaps are resolved newest-first. *)
val add_vma :
  t ->
  cr3:int ->
  start:int64 -> pages:int -> writable:bool -> backing:backing -> unit

(** Resolve a #PF at [vaddr] in address space [cr3]: allocate and map a
    frame on first touch (running reclaim first when the resident budget
    is exhausted) and fill it from swap or the VMA backing. [ctx] is the
    faulting VCPU (its TLBs see the new mapping via the page tables; no
    flush is needed to *add* a translation). *)
val handle_fault :
  t -> Context.t -> cr3:int -> vaddr:int64 -> write:bool -> fault_result

(** Collapse the 2M-aligned region containing [vaddr] into one PS-set PDE.
    A fresh 2M-aligned block of 512 contiguous frames is allocated, every
    4K page's contents are migrated in (unpopulated demand pages are
    filled from their backing), and the old frames are recycled. Returns
    the 2M base frame, or None when no VMA fully covers the region. *)
val promote : t -> cr3:int -> vaddr:int64 -> int option

(** Replace the PS-set PDE covering [vaddr] with a table of 512 4K PTEs
    over the same contiguous frames (no copying). Returns true when a
    huge mapping was actually split. *)
val split : t -> cr3:int -> vaddr:int64 -> bool
