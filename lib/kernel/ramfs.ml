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

(* Copy [len] bytes of [src] from [src_off] to the physically
   contiguous span at [paddr], one frame slice at a time. *)
let blit_phys mem src src_off paddr len =
  let module Pm = Ptl_mem.Phys_mem in
  let pos = ref 0 in
  while !pos < len do
    let pa = paddr + !pos in
    let n = min (len - !pos) (Pm.page_size - (pa land Pm.page_mask)) in
    Pm.blit_string mem src (src_off + !pos) pa n;
    pos := !pos + n
  done

let zero_block = String.make block_size '\x00'

(** DMA block [blk] from disk into the page-cache frame at [paddr]
    (host-side copy: this is the disk controller writing guest memory).
    The block and the zero tail of a partial block are each copied one
    frame slice at a time. *)
let dma_block_in mem (f : file) blk ~paddr =
  let off = blk * block_size in
  let n = min block_size (max 0 (f.size - off)) in
  (* the copy is done before [f.data] can change *)
  blit_phys mem (Bytes.unsafe_to_string f.data) off paddr n;
  blit_phys mem zero_block 0 (paddr + n) (block_size - n)

(** Write-back [n] bytes from the page-cache frame into the disk image
    (host-side, on file write completion). *)
let writeback_block mem (f : file) blk ~paddr ~upto =
  let off = blk * block_size in
  if off + upto > f.size then begin
    let bigger = Bytes.make (off + upto) '\x00' in
    Bytes.blit f.data 0 bigger 0 (Bytes.length f.data);
    f.data <- bigger;
    f.size <- off + upto
  end;
  for i = 0 to upto - 1 do
    Bytes.set f.data (off + i)
      (Char.chr (Ptl_mem.Phys_mem.read8 mem (paddr + i)))
  done

(** Ensure the cache_paddr array covers block [blk]. *)
let ensure_blocks (f : file) blk =
  if blk >= Array.length f.cache_paddr then begin
    let bigger = Array.make (blk + 1) (-1) in
    Array.blit f.cache_paddr 0 bigger 0 (Array.length f.cache_paddr);
    f.cache_paddr <- bigger
  end
