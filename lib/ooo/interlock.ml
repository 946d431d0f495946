(** The interlock controller for LOCK-prefixed instructions (paper §4.4).

    Each locked load (ld.l) acquires a lock on a physical memory address by
    sending it here; the lock is shared by all SMT threads within a core
    and, in multi-core configurations, by all cores. Later locked loads to
    the same address from other threads replay until the owner's releasing
    store (st.rel) commits. Ownership is keyed by (core, thread) so a
    thread's own replayed uops re-acquire freely. *)

type owner = { core : int; thread : int; mutable was_contended : bool }

type t = {
  (* word-granular lock table: paddr (aligned to 8) -> owner.

     Starvation control (the paper's §2.2 "deadlock prevention schemes"):
     the lock is non-recursive — a speculative later iteration of a spin
     loop cannot chain a second acquisition while the first is held — and
     a release that experienced contention leaves the address in a short
     cooldown during which no one may re-acquire. Plain loads/stores are
     NOT subject to the cooldown, so the thread whose release store was
     being starved by the spinning xchg gets a guaranteed window. *)
  locks : (int, owner) Hashtbl.t;
  cooldown : (int, int) Hashtbl.t;  (* key -> first cycle acquirable again *)
  (* FIFO fairness: threads that failed an acquisition queue here; a
     contended release reserves the lock for the oldest waiter so a fixed
     cluster/issue ordering cannot starve one spinner forever. Stale
     reservations (annulled waiters) expire. *)
  waiters : (int, (int * int) list) Hashtbl.t;
  reserved : (int, int * int * int) Hashtbl.t;  (* key -> core, thread, expiry *)
  acquires : Ptl_stats.Statstree.counter;
  contended : Ptl_stats.Statstree.counter;
  mutable trace_enabled : bool;  (* record recent lock events for debugging *)
  mutable trace : string list;  (* newest first, bounded *)
}

(* Event tracing is free when disabled (the common case): the format
   arguments are only rendered when a debugger turned it on. *)
let trace t fmt =
  if t.trace_enabled then
    Printf.ksprintf
      (fun s ->
        t.trace <-
          (if List.length t.trace > 80 then
             s :: List.filteri (fun i _ -> i < 60) t.trace
           else s :: t.trace))
      fmt
  else Printf.ksprintf ignore fmt

let cooldown_cycles = 8
let reservation_cycles = 64

let create stats =
  {
    locks = Hashtbl.create 64;
    cooldown = Hashtbl.create 64;
    waiters = Hashtbl.create 64;
    reserved = Hashtbl.create 64;
    acquires = Ptl_stats.Statstree.counter stats "interlock.acquires";
    contended = Ptl_stats.Statstree.counter stats "interlock.contended";
    trace_enabled = false;
    trace = [];
  }

let key paddr = paddr land lnot 7

let enqueue_waiter t k ~core ~thread =
  let l = try Hashtbl.find t.waiters k with Not_found -> [] in
  if not (List.mem (core, thread) l) then Hashtbl.replace t.waiters k (l @ [ (core, thread) ])

let remove_waiter t k ~core ~thread =
  match Hashtbl.find_opt t.waiters k with
  | None -> ()
  | Some l -> Hashtbl.replace t.waiters k (List.filter (fun w -> w <> (core, thread)) l)

(** Try to acquire the interlock on [paddr] for (core, thread) at [cycle].
    Returns true on success. *)
let acquire t ~cycle ~core ~thread ~paddr =
  let k = key paddr in
  let fail () =
    enqueue_waiter t k ~core ~thread;
    Ptl_stats.Statstree.incr t.contended;
    false
  in
  match Hashtbl.find_opt t.locks k with
  | Some _ -> fail ()
  | None -> (
    match Hashtbl.find_opt t.cooldown k with
    | Some until when cycle < until -> fail ()
    | _ -> (
      match Hashtbl.find_opt t.reserved k with
      | Some (c, th, expiry) when cycle < expiry && not (c = core && th = thread) ->
        fail ()
      | _ ->
        Hashtbl.remove t.cooldown k;
        Hashtbl.remove t.reserved k;
        remove_waiter t k ~core ~thread;
        Hashtbl.replace t.locks k { core; thread; was_contended = false };
        Ptl_stats.Statstree.incr t.acquires;
        trace t "%d: acq %x by (%d,%d)" cycle k core thread;
        true))

(** Release the interlock (at st.rel commit, or when the locked macro-op
    is annulled). Only the owner's release has effect. A contended hold
    enters cooldown so starved plain accesses get a window. *)
let release t ~cycle ~core ~thread ~paddr =
  let k = key paddr in
  match Hashtbl.find_opt t.locks k with
  | Some o when o.core = core && o.thread = thread ->
    Hashtbl.remove t.locks k;
    trace t "%d: rel %x by (%d,%d)" cycle k core thread;
    if o.was_contended then Hashtbl.replace t.cooldown k (cycle + cooldown_cycles);
    (* hand the next turn to the oldest waiter, if any *)
    (match Hashtbl.find_opt t.waiters k with
    | Some ((wc, wt) :: rest) ->
      Hashtbl.replace t.waiters k rest;
      Hashtbl.replace t.reserved k
        (wc, wt, cycle + cooldown_cycles + reservation_cycles)
    | Some [] | None -> ())
  | Some _ | None -> ()

(** Release every lock held by (core, thread) — pipeline flush path. *)
let release_all t ~cycle ~core ~thread =
  let mine =
    Hashtbl.fold
      (fun k o acc ->
        if o.core = core && o.thread = thread then (k, o.was_contended) :: acc
        else acc)
      t.locks []
  in
  List.iter
    (fun (k, contended) ->
      Hashtbl.remove t.locks k;
      if contended then Hashtbl.replace t.cooldown k (cycle + cooldown_cycles))
    mine

(** Is [paddr] interlocked by someone other than (core, thread)? Plain
    loads and stores touching such an address must replay until the owner
    releases (paper §4.4). *)
let locked_by_other t ~core ~thread ~paddr =
  match Hashtbl.find_opt t.locks (key paddr) with
  | Some o ->
    if o.core = core && o.thread = thread then false
    else begin
      o.was_contended <- true;
      true
    end
  | None -> false
let count t = Hashtbl.length t.locks
