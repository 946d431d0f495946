(** The physical register file and free list.

    PTLsim-style: one physical register holds both the 64-bit result value
    and the condition flags its producer generated, so flag renaming rides
    on value renaming — a uop that only sets flags (cmp) still allocates a
    register, and the flags consumer reads the producer's register. *)

type state = Free | Pending | Written

type reg = {
  mutable state : state;
  mutable value : int64;
  mutable flags : int;
  mutable written_cycle : int;
  mutable producer_cluster : int;  (* -1 = immediately visible everywhere *)
}

type t = {
  regs : reg array;
  free : int Queue.t;
}

let create n =
  let t =
    {
      regs =
        Array.init n (fun _ ->
            { state = Free; value = 0L; flags = 0; written_cycle = 0; producer_cluster = -1 });
      free = Queue.create ();
    }
  in
  for i = 0 to n - 1 do
    Queue.push i t.free
  done;
  t

let free_count t = Queue.length t.free

(** Allocate a register in [Pending] state; None when exhausted. *)
let alloc t =
  match Queue.take_opt t.free with
  | None -> None
  | Some i ->
    let r = t.regs.(i) in
    r.state <- Pending;
    r.value <- 0L;
    r.flags <- 0;
    Some i

let release t i =
  let r = t.regs.(i) in
  assert (r.state <> Free);
  r.state <- Free;
  Queue.push i t.free

let write t i ~value ~flags ~cycle ~cluster =
  let r = t.regs.(i) in
  r.state <- Written;
  r.value <- value;
  r.flags <- flags;
  r.written_cycle <- cycle;
  r.producer_cluster <- cluster

(** First cycle at which register [i] is usable from [cluster]: results
    cross clusters only after the consumer cluster's forwarding delay
    (paper §2.2: "multi-cycle latencies between clusters"). *)
let visible_cycle t i ~cluster ~forward_delay =
  let r = t.regs.(i) in
  if r.producer_cluster = -1 || r.producer_cluster = cluster then r.written_cycle
  else r.written_cycle + forward_delay

let is_written t i = t.regs.(i).state = Written
let value t i = t.regs.(i).value
let flags t i = t.regs.(i).flags

(* ---------- guard inspection hooks ---------- *)

let capacity t = Array.length t.regs
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
  Queue.iter
    (fun i ->
      if i < 0 || i >= n then dup := Some (Printf.sprintf "free-list index %d out of range" i)
      else begin
        if on_free.(i) then dup := Some (Printf.sprintf "physreg %d on free list twice" i);
        on_free.(i) <- true
      end)
    t.free;
  match !dup with
  | Some _ as v -> v
  | None ->
    let free_marked =
      Array.fold_left (fun a r -> a + if r.state = Free then 1 else 0) 0 t.regs
    in
    if free_marked <> Queue.length t.free then
      Some
        (Printf.sprintf "free list holds %d entries but %d registers are Free"
           (Queue.length t.free) free_marked)
    else begin
      let referenced_set = Array.make n false in
      iter_referenced (fun i -> if i >= 0 && i < n then referenced_set.(i) <- true);
      let violation = ref None in
      Array.iteri
        (fun i r ->
          if !violation = None then begin
            if r.state = Free && referenced_set.(i) then
              violation := Some (Printf.sprintf "physreg %d is Free but still referenced" i)
            else if r.state <> Free && on_free.(i) then
              violation :=
                Some (Printf.sprintf "physreg %d is %s but on the free list" i (state_name r.state))
            else if r.state <> Free && not referenced_set.(i) then
              violation :=
                Some (Printf.sprintf "physreg %d leaked: %s but unreferenced" i (state_name r.state))
          end)
        t.regs;
      !violation
    end
