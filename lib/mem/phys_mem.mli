(** Guest physical memory: a sparse set of 4 KiB machine frames (MFNs).

    Like Xen, frames have arbitrary non-contiguous machine frame numbers
    (paper §3). Physical addresses are OCaml [int]s; multi-byte accesses
    are little-endian and may cross frame boundaries. Frame tables are
    keyed by MFN with an [int]-specialised hash table. *)

type t

val page_shift : int
val page_size : int
val page_mask : int

val create : ?first_mfn:int -> unit -> t

val mfn_of_paddr : int -> int
val paddr_of_mfn : int -> int

(** Frame backing an MFN, allocating a zeroed frame on first touch. The
    returned bytes may be written, so the frame counts as dirty and any
    copy-on-write sharing is broken first. *)
val frame : t -> int -> Bytes.t

(** Frame backing an MFN for reading, allocating a zeroed frame on first
    touch as {!read8} does. The returned bytes must not be written. *)
val frame_ro : t -> int -> Bytes.t

(** [blit_string t src src_off paddr len] copies [len] bytes of [src]
    from [src_off] to [paddr]. The span must lie within one frame. The
    frame is marked dirty once, so copy-on-write sharing is broken first
    and a {!watch}ed frame advances {!pt_epoch} once for the whole copy,
    where {!write8} advances it once per byte. *)
val blit_string : t -> string -> int -> int -> int -> unit

(** Allocate a fresh frame; returns its MFN. *)
val alloc_page : t -> int

(** Allocate [n] physically contiguous frames whose first MFN is a
    multiple of [align] (in frames, default 1); returns that first MFN.
    Huge-page mappings need 512 contiguous frames on a 2M boundary. *)
val alloc_pages : t -> ?align:int -> int -> int

val allocated_pages : t -> int

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read64 : t -> int -> int64
val write64 : t -> int -> int64 -> unit

(** Sized access in terms of {!Ptl_util.W64.size}. *)
val read_sized : t -> int -> Ptl_util.W64.size -> int64

val write_sized : t -> int -> Ptl_util.W64.size -> int64 -> unit

val write_string : t -> int -> string -> unit
val read_string : t -> int -> int -> string

(** {2 Page-table watch}

    A translation memo (lib/arch/vmem) is exact only while the
    page-table entries it was derived from stay unchanged. *)

(** Advanced by every write to a {!watch}ed frame ({!write8},
    {!write64}, {!write_sized}, {!write_string} or {!frame}) and by
    every {!restore} and {!apply_delta}. A memo taken at an older epoch
    is stale. *)
val pt_epoch : t -> int

(** Watch a frame that holds a page-table entry a memo relies on. *)
val watch : t -> int -> unit

(** Deep copy, for domain checkpointing. *)
val copy : t -> t

(** Restore in place from a snapshot (existing references stay valid). *)
val restore : t -> snapshot:t -> unit

(** MFNs whose contents (or allocation state) differ between two
    memories, sorted ascending; empty = identical. The checkpoint
    round-trip harness uses this to detect dirtied pages. *)
val diff : t -> t -> int list

(** {2 Delta checkpointing}

    Pages written or allocated since the last {!clear_dirty} are
    tracked, so a checkpoint can serialize only the footprint an
    interval touched. {!clone_cow} shares a base image copy-on-write so
    replay workers rebuild a private memory in O(frames) pointer copies
    instead of O(bytes). *)

(** Forget the dirty set: subsequent {!delta}s are relative to now. *)
val clear_dirty : t -> unit

(** Dirty pages (deep-copied, sorted by MFN) plus allocator state:
    everything needed to rebuild this memory from the base image the
    dirty set is relative to. *)
type delta

val delta : t -> delta

(** Number of pages a delta carries. *)
val delta_pages : delta -> int

(** Serialized size of a delta's page payloads ([delta_pages] x
    [page_size]); compare against [allocated_pages x page_size]. *)
val delta_bytes : delta -> int

(** Overlay a delta onto a clone/restore of the base it was captured
    against. Page bytes are copied in, so one delta may be shared. *)
val apply_delta : t -> delta -> unit

(** A memory sharing the base's frame bytes copy-on-write. The base
    must not be mutated afterwards; clones never write through the
    sharing, so one base may back any number of clones on any number
    of domains. *)
val clone_cow : t -> t
