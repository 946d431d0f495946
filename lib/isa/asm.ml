(** Two-pass assembler for x86lite-64 with labels, data directives and
    branch relaxation.

    Guest programs (the minios kernel and all benchmark workloads) are built
    with this assembler. Because the ISA is variable-length and [Jcc] has a
    short form, label resolution iterates to a fixed point; any instruction
    whose encoding would grow between iterations is pinned to the long form
    (standard branch-relaxation convergence argument). *)

open Ptl_util

type item =
  | Ins of Insn.t
  (* An instruction whose encoding depends on a label address. The closure
     receives the resolved label address and produces the instruction. *)
  | Ins_ref of string * (int64 -> Insn.t)
  | Label of string
  | Align of int
  | Bytes of string
  | Space of int
  | Quad_ref of string  (* 64-bit data word holding a label address *)

type t = {
  base : int64;
  mutable items : item list;  (* reversed *)
  mutable defined : (string * int64) list;  (* absolute symbols *)
}

let create ~base () = { base; items = []; defined = [] }

let emit t item = t.items <- item :: t.items

(** Append a fixed instruction. *)
let ins t i = emit t (Ins i)

(** Append a list of fixed instructions. *)
let inss t is = List.iter (ins t) is

(** Place a label at the current position. *)
let label t name = emit t (Label name)

(** Align the current position to [n] bytes (power of two). Padding bytes
    are 0x00, which is the [nop] opcode, so gaps are executable. *)
let align t n =
  if not (Bitops.is_pow2 n) then invalid_arg "Asm.align";
  emit t (Align n)

(** Raw data bytes. *)
let bytes t s = emit t (Bytes s)

let quad t v =
  let b = Buffer.create 8 in
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done;
  bytes t (Buffer.contents b)

(** Reserve [n] zero bytes. *)
let space t n = emit t (Space n)

let asciz t s = bytes t (s ^ "\x00")

(* Label-referencing conveniences. *)
let jmp t name = emit t (Ins_ref (name, fun addr -> Insn.Jmp addr))
let jcc t cond name = emit t (Ins_ref (name, fun addr -> Insn.Jcc (cond, addr)))
let call t name = emit t (Ins_ref (name, fun addr -> Insn.Call addr))

(** Load the address of [name] into a register. *)
let lea_label t r name =
  emit t (Ins_ref (name, fun addr -> Insn.Movabs (r, addr)))

(** A 64-bit data word holding the address of [name] (for jump tables and
    descriptor tables). *)
let quad_label t name = emit t (Quad_ref name)

(** The assembled image. *)
type image = {
  img_base : int64;
  code : string;
  symbols : (string, int64) Hashtbl.t;
}

let symbol img name =
  match Hashtbl.find_opt img.symbols name with
  | Some a -> a
  | None -> invalid_arg ("Asm.symbol: undefined " ^ name)

exception Undefined_label of string

(** Assemble to a flat image at [t.base]. Raises [Undefined_label] for
    unresolved references. *)
let assemble t : image =
  let items = Array.of_list (List.rev t.items) in
  let n = Array.length items in
  (* Per-item pinned-long flag for branch relaxation. *)
  let pinned = Array.make n false in
  let lengths = Array.make n 0 in
  let symbols : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (name, addr) -> Hashtbl.replace symbols name addr) t.defined;
  let lookup name =
    match Hashtbl.find_opt symbols name with
    | Some a -> a
    | None -> raise (Undefined_label name)
  in
  (* One sizing pass: compute item lengths and label addresses with the
     current relaxation choices. Unknown forward labels are assumed far
     away (long form). Returns true if any length changed. *)
  let sizing_pass () =
    let changed = ref false in
    let pos = ref t.base in
    Array.iteri
      (fun i item ->
        (match item with Label name -> Hashtbl.replace symbols name !pos | _ -> ());
        let len =
          match item with
          | Label _ -> 0
          | Align a ->
            let p = Int64.to_int (Int64.sub !pos t.base) in
            Bitops.align_up p a - p
          | Bytes s -> String.length s
          | Space k -> k
          | Quad_ref _ -> 8
          | Ins insn -> String.length (Encode.encode ~rip:!pos insn)
          | Ins_ref (name, make) ->
            let target =
              match Hashtbl.find_opt symbols name with
              | Some a -> a
              | None -> Int64.add !pos 0x1000000L (* unknown: assume far *)
            in
            String.length
              (Encode.encode ~rip:!pos ~short_branches:(not pinned.(i)) (make target))
        in
        if lengths.(i) <> 0 && len > lengths.(i) then begin
          (* Growing encodings oscillate; pin to the long form. *)
          pinned.(i) <- true
        end;
        if lengths.(i) <> len then changed := true;
        lengths.(i) <- len;
        pos := Int64.add !pos (Int64.of_int len))
      items;
    !changed
  in
  let rec iterate k =
    let changed = sizing_pass () in
    if changed && k < 64 then iterate (k + 1)
  in
  iterate 0;
  (* Re-run once more after any pinning so lengths and symbols agree. *)
  ignore (sizing_pass ());
  (* Emission pass. *)
  let buf = Buffer.create 4096 in
  let pos = ref t.base in
  Array.iteri
    (fun i item ->
      let emitted =
        match item with
        | Label _ -> ""
        | Align _ -> String.make lengths.(i) '\x00'
        | Bytes s -> s
        | Space k -> String.make k '\x00'
        | Quad_ref name ->
          let v = lookup name in
          String.init 8 (fun i ->
              Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
        | Ins insn -> Encode.encode ~rip:!pos insn
        | Ins_ref (name, make) ->
          Encode.encode ~rip:!pos ~short_branches:(not pinned.(i)) (make (lookup name))
      in
      if String.length emitted <> lengths.(i) then
        failwith
          (Printf.sprintf "Asm.assemble: length instability at item %d (%d vs %d)" i
             (String.length emitted) lengths.(i));
      Buffer.add_string buf emitted;
      pos := Int64.add !pos (Int64.of_int lengths.(i)))
    items;
  { img_base = t.base; code = Buffer.contents buf; symbols }
