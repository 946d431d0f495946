(** Guest physical memory: a sparse set of 4 KiB machine frames (MFNs).

    Like Xen, the hypervisor hands out arbitrary non-contiguous machine
    frame numbers rather than a linear span starting at zero (paper §3), so
    frames live in a hash table and the allocator can be seeded to start at
    any MFN. Physical addresses are OCaml [int]s (the guest physical space
    is far below 2^62); all multi-byte accesses are little-endian and may
    cross page boundaries.

    Two mechanisms support cheap checkpointing (lib/hyper/checkpoint):

    - {b dirty tracking}: every frame touched by a write (or newly
      allocated — allocation state is machine state) since the last
      {!clear_dirty} is remembered, so a delta checkpoint serializes
      only the pages an interval actually touched instead of the whole
      guest image.
    - {b copy-on-write cloning}: {!clone_cow} builds a memory whose
      frames share bytes with a base image; a frame is copied privately
      the first time it is written. Replay workers clone the master
      image in O(frames) pointer copies instead of O(bytes), and the
      base stays immutable, so any number of workers (even on separate
      {!Stdlib.Domain}s) can share one base.

    Frame tables are keyed by MFN through an [int]-specialised
    [Hashtbl.Make], so a lookup hashes and compares in OCaml instead of
    calling the polymorphic [caml_hash]/[compare_val] primitives.

    A third mechanism keeps translation memos exact (lib/arch/vmem):
    {!watch} marks a frame that holds a page-table entry some memo was
    derived from, and any write to a watched frame — or any wholesale
    {!restore}/{!apply_delta} — advances {!pt_epoch}. A memo taken at an
    older epoch is stale. *)

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

module Mfn_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (mfn : int) = mfn land max_int
end)

type t = {
  frames : Bytes.t Mfn_tbl.t;
  mutable next_mfn : int;
  mutable allocated : int;
  (* MFNs written or allocated since [clear_dirty]. *)
  dirty : unit Mfn_tbl.t;
  (* memo: the last MFN marked dirty, so a run of writes to one page
     costs one compare instead of a hash probe each (-1 = none). A
     memoized MFN is always already dirty, privately owned and not
     watched. *)
  mutable last_dirty : int;
  (* frames whose bytes are shared with a base image (clone_cow); copy
     before the first write. *)
  cow : unit Mfn_tbl.t;
  (* frames holding page-table entries that a translation memo relies
     on; a write to one advances [pt_epoch]. *)
  watched : unit Mfn_tbl.t;
  mutable pt_epoch : int;
}

let create ?(first_mfn = 0x100) () =
  {
    frames = Mfn_tbl.create 1024;
    next_mfn = first_mfn;
    allocated = 0;
    dirty = Mfn_tbl.create 64;
    last_dirty = -1;
    cow = Mfn_tbl.create 4;
    watched = Mfn_tbl.create 16;
    pt_epoch = 0;
  }

let mfn_of_paddr paddr = paddr lsr page_shift
let offset_of_paddr paddr = paddr land page_mask
let paddr_of_mfn mfn = mfn lsl page_shift

(* Mark [mfn] dirty and break any copy-on-write sharing. Must run
   before the frame's bytes are fetched on a write path. A write to a
   watched frame advances the epoch and is never memoized, so every
   later write to it takes this path again. *)
let mark_dirty t mfn =
  if mfn <> t.last_dirty then begin
    if Mfn_tbl.length t.cow > 0 && Mfn_tbl.mem t.cow mfn then begin
      (match Mfn_tbl.find_opt t.frames mfn with
      | Some b -> Mfn_tbl.replace t.frames mfn (Bytes.copy b)
      | None -> ());
      Mfn_tbl.remove t.cow mfn
    end;
    Mfn_tbl.replace t.dirty mfn ();
    if Mfn_tbl.length t.watched > 0 && Mfn_tbl.mem t.watched mfn then
      t.pt_epoch <- t.pt_epoch + 1
    else t.last_dirty <- mfn
  end

(** The page-table epoch: advanced by every write to a {!watch}ed frame
    and by every {!restore} and {!apply_delta}. *)
let pt_epoch t = t.pt_epoch

(** Watch [mfn]: from now on a write to it advances {!pt_epoch}. *)
let watch t mfn =
  if not (Mfn_tbl.mem t.watched mfn) then begin
    Mfn_tbl.replace t.watched mfn ();
    if t.last_dirty = mfn then t.last_dirty <- -1
  end

(* Every frame may have changed: advance the epoch. No memo taken before
   survives that, so the watch set starts over. *)
let invalidate_translations t =
  t.pt_epoch <- t.pt_epoch + 1;
  Mfn_tbl.reset t.watched

(* Frame backing [mfn] for reading: allocating a zeroed frame on first
   touch (allocation is a machine-state change, so it dirties). *)
let frame_ro t mfn =
  match Mfn_tbl.find t.frames mfn with
  | b -> b
  | exception Not_found ->
    let b = Bytes.make page_size '\x00' in
    Mfn_tbl.add t.frames mfn b;
    t.allocated <- t.allocated + 1;
    if mfn <> t.last_dirty then begin
      Mfn_tbl.replace t.dirty mfn ();
      t.last_dirty <- mfn
    end;
    b

(** Frame backing [mfn], allocating a zeroed frame on first touch. The
    returned bytes may be written, so the frame is marked dirty and any
    copy-on-write sharing is broken first. *)
let frame t mfn =
  mark_dirty t mfn;
  frame_ro t mfn

(** Copy [len] bytes of [src] from [src_off] to [paddr]. The span must
    lie within one frame, which is marked dirty once, as a write. *)
let blit_string t src src_off paddr len =
  if len > 0 then begin
    let mfn = mfn_of_paddr paddr in
    let off = offset_of_paddr paddr in
    if off + len > page_size then invalid_arg "Phys_mem.blit_string: crosses a frame";
    mark_dirty t mfn;
    Bytes.blit_string src src_off (frame_ro t mfn) off len
  end

(** Allocate a fresh frame and return its MFN. *)
let alloc_page t =
  let mfn = t.next_mfn in
  t.next_mfn <- t.next_mfn + 1;
  ignore (frame_ro t mfn);
  mfn

(** Allocate [n] physically contiguous frames whose first MFN is a
    multiple of [align] (in frames); returns that first MFN. Huge-page
    mappings need 512 contiguous frames on a 2M boundary. *)
let alloc_pages t ?(align = 1) n =
  let first = (t.next_mfn + align - 1) / align * align in
  t.next_mfn <- first + n;
  for i = 0 to n - 1 do
    ignore (frame_ro t (first + i))
  done;
  first

let allocated_pages t = t.allocated

(** MFNs whose contents differ between two memories, including frames
    present in only one of them, sorted ascending. Empty = identical
    contents (a frame of zeroes and an absent frame count as different:
    allocation state is part of the machine state). *)
let diff a b =
  let differing = ref [] in
  Mfn_tbl.iter
    (fun mfn fa ->
      match Mfn_tbl.find_opt b.frames mfn with
      | Some fb -> if not (Bytes.equal fa fb) then differing := mfn :: !differing
      | None -> differing := mfn :: !differing)
    a.frames;
  Mfn_tbl.iter
    (fun mfn _ ->
      if not (Mfn_tbl.mem a.frames mfn) then differing := mfn :: !differing)
    b.frames;
  List.sort_uniq compare !differing

let read8 t paddr =
  Char.code (Bytes.get (frame_ro t (mfn_of_paddr paddr)) (offset_of_paddr paddr))

let write8 t paddr v =
  let mfn = mfn_of_paddr paddr in
  mark_dirty t mfn;
  Bytes.set (frame_ro t mfn) (offset_of_paddr paddr) (Char.chr (v land 0xFF))

(* Multi-byte accesses use the fast within-page path when possible and a
   byte loop when the access straddles a frame boundary. *)
let read_n t paddr n =
  let off = offset_of_paddr paddr in
  if off + n <= page_size then begin
    let b = frame_ro t (mfn_of_paddr paddr) in
    match n with
    | 1 -> Int64.of_int (Char.code (Bytes.get b off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL
    | 8 -> Bytes.get_int64_le b off
    | _ -> Ptl_util.W64.of_bytes n (fun i -> Char.code (Bytes.get b (off + i)))
  end
  else Ptl_util.W64.of_bytes n (fun i -> read8 t (paddr + i))

let write_n t paddr n v =
  let off = offset_of_paddr paddr in
  if off + n <= page_size then begin
    let mfn = mfn_of_paddr paddr in
    mark_dirty t mfn;
    let b = frame_ro t mfn in
    match n with
    | 1 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | 2 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xFFFFL))
    | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le b off v
    | _ ->
      for i = 0 to n - 1 do
        Bytes.set b (off + i) (Char.chr (Ptl_util.W64.byte v i))
      done
  end
  else
    for i = 0 to n - 1 do
      write8 t (paddr + i) (Ptl_util.W64.byte v i)
    done

let read64 t paddr = read_n t paddr 8
let write64 t paddr v = write_n t paddr 8 v

(** Sized access in terms of {!Ptl_util.W64.size}. *)
let read_sized t paddr size = read_n t paddr (Ptl_util.W64.bytes_of_size size)
let write_sized t paddr size v = write_n t paddr (Ptl_util.W64.bytes_of_size size) v

(** Copy a string into physical memory at [paddr]. *)
let write_string t paddr s =
  String.iteri (fun i c -> write8 t (paddr + i) (Char.code c)) s

(** Read [n] bytes starting at [paddr]. *)
let read_string t paddr n = String.init n (fun i -> Char.chr (read8 t (paddr + i)))

(** Deep copy (for domain checkpointing): every frame is materialized
    privately, so the copy is safe to share read-only across domains. *)
let copy t =
  let frames = Mfn_tbl.create (Mfn_tbl.length t.frames) in
  Mfn_tbl.iter (fun mfn b -> Mfn_tbl.add frames mfn (Bytes.copy b)) t.frames;
  {
    frames;
    next_mfn = t.next_mfn;
    allocated = t.allocated;
    dirty = Mfn_tbl.copy t.dirty;
    last_dirty = t.last_dirty;
    cow = Mfn_tbl.create 4;
    watched = Mfn_tbl.create 16;
    pt_epoch = 0;
  }

(** Restore [t] to the state captured in [snapshot] (in place, so existing
    references to [t] stay valid). Every restored frame counts as dirty:
    the restore itself rewrote the machine state, so a later delta
    against an older base must include it. *)
let restore t ~snapshot =
  Mfn_tbl.reset t.frames;
  Mfn_tbl.reset t.cow;
  Mfn_tbl.reset t.dirty;
  t.last_dirty <- -1;
  invalidate_translations t;
  Mfn_tbl.iter
    (fun mfn b ->
      Mfn_tbl.add t.frames mfn (Bytes.copy b);
      Mfn_tbl.replace t.dirty mfn ())
    snapshot.frames;
  t.next_mfn <- snapshot.next_mfn;
  t.allocated <- snapshot.allocated

(* ---- delta checkpointing ---- *)

(** Forget the dirty set: subsequent {!delta}s are relative to the state
    at this call (typically right after a base image is captured). *)
let clear_dirty t =
  Mfn_tbl.reset t.dirty;
  t.last_dirty <- -1

(** The pages written or allocated since {!clear_dirty} plus the
    allocator state — everything needed to rebuild this memory from the
    base image the dirty set is relative to. Page contents are deep
    copies, so the delta stays valid while execution continues. *)
type delta = {
  d_pages : (int * Bytes.t) array;  (* sorted by MFN *)
  d_next_mfn : int;
  d_allocated : int;
}

let delta t =
  let pages =
    Mfn_tbl.fold
      (fun mfn () acc ->
        match Mfn_tbl.find_opt t.frames mfn with
        | Some b -> (mfn, Bytes.copy b) :: acc
        | None -> acc)
      t.dirty []
  in
  let d_pages = Array.of_list pages in
  Array.sort (fun (a, _) (b, _) -> compare a b) d_pages;
  { d_pages; d_next_mfn = t.next_mfn; d_allocated = t.allocated }

let delta_pages d = Array.length d.d_pages

(** Serialized size of a delta, counting page payloads only (the
    honest apples-to-apples number against [allocated_pages x
    page_size] for a full image). *)
let delta_bytes d = Array.length d.d_pages * page_size

(** Overlay [d] onto [t] (typically a fresh {!clone_cow} of the base
    image [d] was captured against): dirty page contents replace the
    base's, and the allocator state advances to the capture point. Page
    bytes are copied in, so [d] may be shared across workers. *)
let apply_delta t d =
  Array.iter
    (fun (mfn, b) ->
      (match Mfn_tbl.find_opt t.frames mfn with
      | Some _ -> ()
      | None -> t.allocated <- t.allocated + 1);
      Mfn_tbl.replace t.frames mfn (Bytes.copy b);
      Mfn_tbl.remove t.cow mfn;
      Mfn_tbl.replace t.dirty mfn ())
    d.d_pages;
  t.next_mfn <- d.d_next_mfn;
  (* allocation only grows, so the capture-point count is authoritative *)
  t.allocated <- d.d_allocated;
  t.last_dirty <- -1;
  invalidate_translations t

(** A memory whose frames share bytes with [base], copied privately on
    first write. [base] must not be mutated afterwards (deep {!copy}
    images and deserialized images qualify); the clone never writes
    through the sharing, so one base may back any number of clones on
    any number of domains. *)
let clone_cow base =
  let n = Mfn_tbl.length base.frames in
  let frames = Mfn_tbl.create (max 16 n) in
  let cow = Mfn_tbl.create (max 16 n) in
  Mfn_tbl.iter
    (fun mfn b ->
      Mfn_tbl.add frames mfn b;
      Mfn_tbl.replace cow mfn ())
    base.frames;
  {
    frames;
    next_mfn = base.next_mfn;
    allocated = base.allocated;
    dirty = Mfn_tbl.create 64;
    last_dirty = -1;
    cow;
    watched = Mfn_tbl.create 16;
    pt_epoch = 0;
  }
