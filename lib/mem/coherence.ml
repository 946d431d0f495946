(** Multi-core cache coherence.

    The paper's released PTLsim models "instant visibility" coherence —
    no delay on line movement between cores — and leaves a MOESI model
    with real transfer overhead as future work (§4.4, §7). Both are
    implemented here behind one interface: a directory tracks each line's
    state in every core and charges latency for cache-to-cache transfers
    and invalidations; the instant model tracks nothing and charges
    nothing. The multi-core driver installs the resulting penalty function
    into each core's {!Hierarchy}. *)

module Stats = Ptl_stats.Statstree

type state = M | O | E | S | I

type mode = Instant | Moesi of { transfer_latency : int; invalidate_latency : int }

type t = {
  mode : mode;
  ncores : int;
  line_size : int;
  (* line address -> per-core state *)
  directory : (int, state array) Hashtbl.t;
  transfers : Stats.counter;
  invalidations : Stats.counter;
  bus_transactions : Stats.counter;
}

let create stats ~mode ~ncores ~line_size =
  {
    mode;
    ncores;
    line_size;
    directory = Hashtbl.create 4096;
    transfers = Stats.counter stats "coherence.transfers";
    invalidations = Stats.counter stats "coherence.invalidations";
    bus_transactions = Stats.counter stats "coherence.bus_transactions";
  }

let line_of t paddr = Ptl_util.Bitops.align_down paddr t.line_size

let states t line =
  match Hashtbl.find_opt t.directory line with
  | Some a -> a
  | None ->
    let a = Array.make t.ncores I in
    Hashtbl.add t.directory line a;
    a

let state t ~core ~paddr = (states t (line_of t paddr)).(core)

(** Latency penalty (cycles) for [core] missing on [paddr]. Updates the
    directory per the MOESI protocol. *)
let miss_penalty t ~core ~paddr ~write =
  match t.mode with
  | Instant -> 0
  | Moesi { transfer_latency; invalidate_latency } ->
    Stats.incr t.bus_transactions;
    let st = states t (line_of t paddr) in
    let penalty = ref 0 in
    if write then begin
      (* Read-for-ownership: everyone else goes to I. *)
      Array.iteri
        (fun c s ->
          if c <> core && s <> I then begin
            Stats.incr t.invalidations;
            penalty := max !penalty invalidate_latency;
            (match s with
            | M | O ->
              Stats.incr t.transfers;
              penalty := max !penalty transfer_latency
            | E | S | I -> ());
            st.(c) <- I
          end)
        st;
      st.(core) <- M
    end
    else begin
      (* Read: a dirty owner supplies the line and keeps it in O. *)
      let owner = ref None in
      Array.iteri
        (fun c s ->
          if c <> core then
            match s with
            | M ->
              st.(c) <- O;
              owner := Some c
            | O -> owner := Some c
            | E -> st.(c) <- S
            | S | I -> ())
        st;
      (match !owner with
      | Some _ ->
        Stats.incr t.transfers;
        penalty := transfer_latency
      | None -> ());
      let anyone_else = Array.exists (fun s -> s <> I) (Array.mapi (fun c s -> if c = core then I else s) st) in
      st.(core) <- (if anyone_else then S else E)
    end;
    !penalty

(** Hits on writes still need an upgrade if the line is shared. Returns the
    penalty and whether other copies were invalidated. *)
let write_hit_penalty t ~core ~paddr =
  match t.mode with
  | Instant -> 0
  | Moesi { invalidate_latency; _ } ->
    let st = states t (line_of t paddr) in
    (match st.(core) with
    | M | E ->
      st.(core) <- M;
      0
    | O | S | I ->
      Stats.incr t.bus_transactions;
      let penalty = ref 0 in
      Array.iteri
        (fun c s ->
          if c <> core && s <> I then begin
            Stats.incr t.invalidations;
            penalty := invalidate_latency;
            st.(c) <- I
          end)
        st;
      st.(core) <- M;
      !penalty)

(** Drop a core's copy (eviction). *)
let note_evict t ~core ~paddr =
  match t.mode with
  | Instant -> ()
  | Moesi _ ->
    let st = states t (line_of t paddr) in
    st.(core) <- I

(** Invariant check for tests: at most one M/E owner, M/E exclusive with
    any other non-I state; O coexists only with S/I. *)
let check_invariants t =
  Hashtbl.fold
    (fun _line st ok ->
      ok
      &&
      let m = Array.fold_left (fun a s -> a + if s = M then 1 else 0) 0 st in
      let e = Array.fold_left (fun a s -> a + if s = E then 1 else 0) 0 st in
      let o = Array.fold_left (fun a s -> a + if s = O then 1 else 0) 0 st in
      let s_ = Array.fold_left (fun a s -> a + if s = S then 1 else 0) 0 st in
      let nonI = m + e + o + s_ in
      m <= 1 && e <= 1 && o <= 1
      && (m = 0 || nonI = 1)
      && (e = 0 || nonI = 1))
    t.directory true
