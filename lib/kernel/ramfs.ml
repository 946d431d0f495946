(** The minios file system: a flat ramfs with directories-by-prefix and a
    disk model behind it.

    File *content* initially lives "on disk" (host-side strings). The first
    access to a 4 KiB block pays the disk latency — the owning process
    blocks, a disk-completion event fires later, and the block is DMA'd
    into page-cache pages allocated from guest kernel memory. Subsequent
    reads copy page-cache -> user buffer with real guest kernel code. This
    mirrors how the paper's rsync run pages its file set in from the
    RAM-resident disk image (§5: "the disk image was loaded into RAM",
    still giving a distinct startup/page-in phase in Figure 2). *)

type file = {
  name : string;
  mutable data : Bytes.t;  (* disk contents (authoritative) *)
  (* guest *kernel virtual* address of each in-core 4 KiB block, or -1;
     the kernel translates to physical when DMAing *)
  mutable cache_paddr : int array;
  mutable pending_blocks : int list;  (* blocks with an in-flight disk read *)
  mutable size : int;
}

type t = {
  files : (string, file) Hashtbl.t;
  mutable order : string list;  (* creation order, for readdir *)
}

let create () = { files = Hashtbl.create 64; order = [] }

let block_size = Ptl_mem.Phys_mem.page_size

let blocks_of_size size = (size + block_size - 1) / block_size

let add_file t ~name ~contents =
  let size = String.length contents in
  let f =
    {
      name;
      data = Bytes.of_string contents;
      cache_paddr = Array.make (max 1 (blocks_of_size size)) (-1);
      pending_blocks = [];
      size;
    }
  in
  Hashtbl.replace t.files name f;
  if not (List.mem name t.order) then t.order <- t.order @ [ name ]

let find t name = Hashtbl.find_opt t.files name

let exists t name = Hashtbl.mem t.files name

(** Create an empty (or truncate an existing) file. *)
let creat t name =
  match find t name with
  | Some f ->
    f.size <- 0;
    f.data <- Bytes.create 0;
    Array.fill f.cache_paddr 0 (Array.length f.cache_paddr) (-1)
  | None -> add_file t ~name ~contents:""

(** Files whose name starts with [prefix], in creation order. *)
let list_dir t ~prefix =
  List.filter
    (fun n -> String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix)
    t.order

let size t name = match find t name with Some f -> Some f.size | None -> None

(** Is block [blk] of [f] resident in the page cache? *)
let block_resident (f : file) blk =
  blk < Array.length f.cache_paddr && f.cache_paddr.(blk) >= 0

(* A page-cache block is a kernel-heap buffer: contiguous in virtual
   memory, but it may straddle two pages whose frames are not adjacent.
   [iter_slices ~translate va len f] calls [f pos paddr n] for each
   page slice of the [len] bytes at [va]: [n] bytes from buffer offset
   [pos] sit at [paddr]. [translate] maps a virtual address to its
   physical one. *)
let iter_slices ~translate va len f =
  let module Pm = Ptl_mem.Phys_mem in
  let pos = ref 0 in
  while !pos < len do
    let pa = translate (Int64.add va (Int64.of_int !pos)) in
    let n = min (len - !pos) (Pm.page_size - (pa land Pm.page_mask)) in
    f !pos pa n;
    pos := !pos + n
  done

let zero_block = String.make block_size '\x00'

(** DMA block [blk] from disk into the page-cache buffer at kernel
    virtual address [va] (host-side copy: this is the disk controller
    writing guest memory). The block and the zero tail of a partial
    block are each copied one page slice at a time. *)
let dma_block_in mem (f : file) blk ~va ~translate =
  let module Pm = Ptl_mem.Phys_mem in
  let off = blk * block_size in
  let n = min block_size (max 0 (f.size - off)) in
  (* the copy is done before [f.data] can change *)
  let data = Bytes.unsafe_to_string f.data in
  iter_slices ~translate va n (fun pos pa k ->
      Pm.blit_string mem data (off + pos) pa k);
  iter_slices ~translate (Int64.add va (Int64.of_int n)) (block_size - n)
    (fun pos pa k -> Pm.blit_string mem zero_block pos pa k)

(** Write-back the first [upto] bytes of the page-cache buffer at
    kernel virtual address [va] into the disk image (host-side, on file
    write completion). *)
let writeback_block mem (f : file) blk ~va ~translate ~upto =
  let off = blk * block_size in
  if off + upto > f.size then begin
    let bigger = Bytes.make (off + upto) '\x00' in
    Bytes.blit f.data 0 bigger 0 (Bytes.length f.data);
    f.data <- bigger;
    f.size <- off + upto
  end;
  iter_slices ~translate va upto (fun pos pa k ->
      for i = 0 to k - 1 do
        Bytes.set f.data (off + pos + i)
          (Char.chr (Ptl_mem.Phys_mem.read8 mem (pa + i)))
      done)

(** Ensure the cache_paddr array covers block [blk]. *)
let ensure_blocks (f : file) blk =
  if blk >= Array.length f.cache_paddr then begin
    let bigger = Array.make (blk + 1) (-1) in
    Array.blit f.cache_paddr 0 bigger 0 (Array.length f.cache_paddr);
    f.cache_paddr <- bigger
  end
