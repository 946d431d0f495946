(** The 4-level x86-64 page table tree and its hardware walker.

    Page table entries are 8 bytes with the real x86-64 bit layout
    (present, writable, user, accessed, dirty, NX). The walker performs the
    chain of four dependent loads the paper describes (§4.3) and reports
    the physical address of every PTE it touched so the timing model can
    inject those loads into the cache hierarchy. Accessed/dirty tracking
    bits are set during the walk, exactly as x86 microcode/hardware does
    (§2.1). *)

(** Present bit. *)
val pte_p : int64

(** Writable bit. *)
val pte_w : int64

(** User-accessible bit. *)
val pte_u : int64

(** Accessed bit. *)
val pte_a : int64

(** Dirty bit. *)
val pte_d : int64

(** Page-size bit: set on a PDE, the walk ends at a 2M leaf. *)
val pte_ps : int64

(** Levels of the tree (4). *)
val levels : int

(** Virtual-address bits each level indexes (9). *)
val index_bits : int

(** 2M huge pages span [huge_pages] 4K frames. *)
val huge_pages : int

(** log2 of the 2M huge page size. *)
val huge_shift : int

(** Bytes in a huge page. *)
val huge_size : int

(** Offset mask within a huge page. *)
val huge_mask : int

(** Table index of [vaddr] at [level] (3 = root, 0 = leaf). *)
val vpn_index : int64 -> int -> int

(** Frame number a PTE points to. *)
val pte_mfn : int64 -> int

(** Why a translation failed; mirrors the x86 page-fault error code. *)
type fault = {
  fault_vaddr : int64;
  not_present : bool;  (* true: P bit clear; false: protection violation *)
  on_write : bool;
  on_user : bool;
  on_exec : bool;
}

(** A successful translation. [pte_addrs] lists the physical address of each
    PTE read, root first — the walker's dependent loads (four for a 4K
    mapping, three when a 2M PDE leaf short-circuits the walk). [mfn] is
    always the exact 4K frame for [vaddr]; for a huge mapping it is the 2M
    region's base frame plus the level-0 index, so {!to_paddr} and every
    existing consumer keep working unchanged. [huge] records that the
    mapping came from a PS-set PDE. *)
type translation = {
  mfn : int;
  writable : bool;
  user : bool;
  nx : bool;
  huge : bool;
  pte_addrs : int list;
}

(** Walk the tree rooted at [cr3_mfn] for [vaddr]. [write]/[user]/[exec]
    describe the access being performed (used for permission checks and
    dirty-bit setting). When [set_ad] is true (hardware behaviour) the
    accessed bits of every level and the dirty bit of the leaf are updated
    in memory — but only once the walk has fully succeeded: a walk that
    faults at any level leaves all A/D bits untouched, matching x86
    hardware, which commits the TLB fill and the A/D updates together. *)
val walk :
  Phys_mem.t ->
  cr3_mfn:int ->
  vaddr:int64 ->
  write:bool ->
  user:bool ->
  exec:bool -> ?set_ad:bool -> unit -> (translation, fault) result

(** Install a translation [vaddr -> mfn], allocating intermediate tables
    with [alloc] as needed (the guest-kernel/hypervisor MMU-update path).
    With [huge], [vaddr] must be 2M-aligned and [mfn] the 2M-aligned base
    frame of 512 contiguous 4K frames: the walk stops at level 1 and a
    PS-set PDE leaf is written. *)
val map :
  Phys_mem.t ->
  cr3_mfn:int ->
  vaddr:int64 ->
  mfn:int ->
  writable:bool ->
  user:bool -> ?nx:bool -> ?huge:bool -> alloc:(unit -> int) -> unit -> unit

(** Remove the translation for [vaddr] (leaf only; tables are not freed).
    A PS-set PDE covering [vaddr] is cleared, dropping the whole 2M
    mapping. *)
val unmap : Phys_mem.t -> cr3_mfn:int -> vaddr:int64 -> unit

(** Read the raw PDE covering [vaddr] (level-1 entry), if the upper levels
    are present: [(pde_addr, pde)]. The VM layer's promote/split logic
    inspects and rewrites PDEs through this. *)
val pde_of :
  Phys_mem.t -> cr3_mfn:int -> vaddr:int64 -> (int * int64) option

(** Raw leaf PTE for [vaddr]: [(pte_addr, pte, level)] where [level] is 0
    for a 4K leaf and 1 for a PS-set PDE. None when any level on the path
    is not present. The reclaim scanner reads and rewrites accessed bits
    through this without perturbing them the way a walk would. *)
val leaf_pte :
  Phys_mem.t ->
  cr3_mfn:int -> vaddr:int64 -> (int * int64 * int) option

(** Read-only probe used by debuggers and the functional reference: no A/D
    updates, no permission checks beyond presence. *)
val probe : Phys_mem.t -> cr3_mfn:int -> vaddr:int64 -> int option

(** Translate a virtual address to physical, or a fault. *)
val to_paddr : translation -> int64 -> int
