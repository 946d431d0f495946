(** The physical register file and free list.

    PTLsim-style: one physical register holds both the 64-bit result value
    and the condition flags its producer generated, so flag renaming rides
    on value renaming — a uop that only sets flags (cmp) still allocates a
    register, and the flags consumer reads the producer's register.

    The file is flat: one array per field, indexed by register number,
    with the 64-bit values packed in a [Bytes]. Every store is of an
    immediate, so writing a register needs no write barrier. *)

open Ptl_util

type state = Free | Pending | Written

type t = {
  state : state array;
  values : Bytes.t;  (* 8 bytes per register, little-endian *)
  flags : int array;
  written_cycle : int array;
  producer_cluster : int array;  (* -1 = immediately visible everywhere *)
  free : int Ring.t;  (* FIFO: released registers are reused last *)
}

let create n =
  let t =
    {
      state = Array.make n Free;
      values = Bytes.make (8 * n) '\000';
      flags = Array.make n 0;
      written_cycle = Array.make n 0;
      producer_cluster = Array.make n (-1);
      free = Ring.create n (-1);
    }
  in
  for i = 0 to n - 1 do
    Ring.push t.free i
  done;
  t

let free_count t = Ring.length t.free

(** Allocate a register in [Pending] state; -1 when exhausted. *)
let alloc t =
  if Ring.is_empty t.free then -1
  else begin
    let i = Ring.pop t.free in
    t.state.(i) <- Pending;
    Bytes.set_int64_le t.values (8 * i) 0L;
    t.flags.(i) <- 0;
    i
  end

let release t i =
  assert (t.state.(i) <> Free);
  t.state.(i) <- Free;
  Ring.push t.free i

let write t i ~value ~flags ~cycle ~cluster =
  t.state.(i) <- Written;
  Bytes.set_int64_le t.values (8 * i) value;
  t.flags.(i) <- flags;
  t.written_cycle.(i) <- cycle;
  t.producer_cluster.(i) <- cluster

(** First cycle at which register [i] is usable from [cluster]: results
    cross clusters only after the consumer cluster's forwarding delay
    (paper §2.2: "multi-cycle latencies between clusters"). *)
let visible_cycle t i ~cluster ~forward_delay =
  let pc = t.producer_cluster.(i) in
  if pc = -1 || pc = cluster then t.written_cycle.(i)
  else t.written_cycle.(i) + forward_delay

let is_written t i = t.state.(i) = Written
let value t i = Bytes.get_int64_le t.values (8 * i)
let flags t i = t.flags.(i)

(* ---------- guard inspection hooks ---------- *)

let capacity t = Array.length t.state
let state_name = function Free -> "Free" | Pending -> "Pending" | Written -> "Written"

(** Conservation + leak check against the set of registers the pipeline
    references ([iter_referenced] visits each, see
    {!Ooo_core.guard_iter_referenced}): the free list must agree with
    the Free-marked population, contain no duplicates and no live
    register; every referenced register must be live; and every live
    register must be referenced (otherwise it leaked). Returns a
    violation description, or None. *)
let conservation_check t ~iter_referenced =
  let n = capacity t in
  let on_free = Array.make n false in
  let dup = ref None in
  Ring.iter t.free (fun i ->
      if i < 0 || i >= n then dup := Some (Printf.sprintf "free-list index %d out of range" i)
      else begin
        if on_free.(i) then dup := Some (Printf.sprintf "physreg %d on free list twice" i);
        on_free.(i) <- true
      end);
  match !dup with
  | Some _ as v -> v
  | None ->
    let free_marked =
      Array.fold_left (fun a s -> a + if s = Free then 1 else 0) 0 t.state
    in
    if free_marked <> Ring.length t.free then
      Some
        (Printf.sprintf "free list holds %d entries but %d registers are Free"
           (Ring.length t.free) free_marked)
    else begin
      let referenced_set = Array.make n false in
      iter_referenced (fun i -> if i >= 0 && i < n then referenced_set.(i) <- true);
      let violation = ref None in
      Array.iteri
        (fun i s ->
          if !violation = None then begin
            if s = Free && referenced_set.(i) then
              violation := Some (Printf.sprintf "physreg %d is Free but still referenced" i)
            else if s <> Free && on_free.(i) then
              violation :=
                Some (Printf.sprintf "physreg %d is %s but on the free list" i (state_name s))
            else if s <> Free && not referenced_set.(i) then
              violation :=
                Some (Printf.sprintf "physreg %d leaked: %s but unreferenced" i (state_name s))
          end)
        t.state;
      !violation
    end
