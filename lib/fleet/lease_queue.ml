(** The job server's lease bookkeeping: which interval indices still
    need a replay, which are leased out to a worker, and which are
    decided. Pure data — time is an explicit argument — so worker-death
    and timeout behaviour is unit-testable without sockets.

    Lifecycle of an index: [pending] -> leased (to one owner, with a
    deadline) -> decided. A lease that times out, or whose owner
    disconnects, re-queues the index; if the original worker later
    finishes anyway, the first {!complete} wins and the straggler's
    duplicate is ignored (replay is deterministic, so either copy of
    the result is the same bytes). *)

type 'o t = {
  pending : int Queue.t;
  leases : (int, 'o * float) Hashtbl.t;  (* index -> owner, deadline *)
  decided : bool array;
  mutable decided_count : int;
}

(** [create ~count ~cached] — [cached] indices are already decided
    (result-cache hits) and are never handed out. *)
let create ~count ~cached =
  let t =
    {
      pending = Queue.create ();
      leases = Hashtbl.create 16;
      decided = Array.make count false;
      decided_count = 0;
    }
  in
  List.iter
    (fun i ->
      if i >= 0 && i < count && not t.decided.(i) then begin
        t.decided.(i) <- true;
        t.decided_count <- t.decided_count + 1
      end)
    cached;
  for i = 0 to count - 1 do
    if not t.decided.(i) then Queue.add i t.pending
  done;
  t

let total t = Array.length t.decided

(** Has [index] already been decided? (Out-of-range indices are not.) *)
let is_decided t index =
  index >= 0 && index < Array.length t.decided && t.decided.(index)
let decided_count t = t.decided_count
let leased t = Hashtbl.length t.leases
let pending t = Queue.length t.pending
let finished t = t.decided_count = total t

(** Hand the next undecided index to [owner], with a deadline of
    [now +. timeout]. [None] = nothing to hand out right now (drained,
    or everything left is leased elsewhere). *)
let rec lease t ~owner ~now ~timeout =
  match Queue.take_opt t.pending with
  | None -> None
  | Some i ->
    (* an index can sit in the queue after a straggler already decided
       it (requeue raced with a late completion): skip, don't re-issue *)
    if t.decided.(i) then lease t ~owner ~now ~timeout
    else begin
      Hashtbl.replace t.leases i (owner, now +. timeout);
      Some i
    end

(** Record a result for [index]. [true] = newly decided (the caller
    should keep this result); [false] = a duplicate from a straggler
    whose lease was already re-queued and completed elsewhere. *)
let complete t index =
  if index < 0 || index >= total t || t.decided.(index) then false
  else begin
    t.decided.(index) <- true;
    t.decided_count <- t.decided_count + 1;
    Hashtbl.remove t.leases index;
    true
  end

(** Return [owner]'s lease on [index] undecided (the worker reported a
    typed failure and the index should be retried — by anyone). [true]
    if a lease by [owner] was actually returned; a stale release (lease
    already expired, stolen or decided) is ignored. *)
let release t index ~owner =
  match Hashtbl.find_opt t.leases index with
  | Some (o, _) when o = owner && not t.decided.(index) ->
    Hashtbl.remove t.leases index;
    Queue.add index t.pending;
    true
  | _ -> false

(** Renew the deadline on [owner]'s lease of [index] (a heartbeat: the
    worker is slow but alive). [false] = no such lease held by [owner]
    — it expired or was re-queued; the worker's eventual completion
    still lands via the first-completion-wins rule. *)
let touch t index ~owner ~now ~timeout =
  match Hashtbl.find_opt t.leases index with
  | Some (o, _) when o = owner ->
    Hashtbl.replace t.leases index (owner, now +. timeout);
    true
  | _ -> false

(** Re-queue every lease past its deadline; returns the indices. *)
let expire t ~now =
  let stale =
    Hashtbl.fold
      (fun i (_, deadline) acc -> if deadline < now then i :: acc else acc)
      t.leases []
  in
  let stale = List.sort compare stale in
  List.iter
    (fun i ->
      Hashtbl.remove t.leases i;
      Queue.add i t.pending)
    stale;
  stale

(** Re-queue every lease held by [owner] (worker died / disconnected);
    returns the indices. *)
let drop_owner t owner =
  let held =
    Hashtbl.fold
      (fun i (o, _) acc -> if o = owner then i :: acc else acc)
      t.leases []
  in
  let held = List.sort compare held in
  List.iter
    (fun i ->
      Hashtbl.remove t.leases i;
      Queue.add i t.pending)
    held;
  held
