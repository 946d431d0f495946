(** Periodic statistics snapshots and derived per-interval series.

    The paper takes a snapshot every 2.2 million cycles (1000 per simulated
    second at 2.2 GHz) and plots per-interval rates; this module implements
    that snapshot schedule and the series arithmetic used by the Figure 2
    (cycles per CPU mode) and Figure 3 (miss/mispredict rates) plots. *)

type t = {
  stats : Statstree.t;
  interval : int;  (* cycles between snapshots *)
  mutable next_cycle : int;
  mutable snaps : Statstree.snapshot list;  (* newest first *)
}

let create stats ~interval =
  if interval <= 0 then invalid_arg "Timelapse.create";
  { stats; interval; next_cycle = interval; snaps = [ Statstree.snapshot stats ~cycle:0 ] }

(** Call once per simulated cycle (or with the current cycle whenever
    convenient); takes snapshots on schedule. *)
let tick t ~cycle =
  if cycle >= t.next_cycle then begin
    t.snaps <- Statstree.snapshot t.stats ~cycle :: t.snaps;
    t.next_cycle <- t.next_cycle + t.interval
  end

(** Force a final snapshot at [cycle] (end of run). When the schedule
    already took a snapshot at exactly this cycle (the run ended on an
    interval boundary), no duplicate zero-length interval is appended. *)
let finish t ~cycle =
  match t.snaps with
  | s :: _ when s.Statstree.cycle = cycle -> ()
  | _ -> t.snaps <- Statstree.snapshot t.stats ~cycle :: t.snaps

let snapshots t = List.rev t.snaps

(** Per-interval increases of the counter at [path]: element [i] is the
    increase between snapshot [i] and snapshot [i+1]. *)
let series t path =
  let snaps = Array.of_list (snapshots t) in
  List.init
    (max 0 (Array.length snaps - 1))
    (fun i -> Statstree.delta snaps.(i) snaps.(i + 1) path)

(** Per-interval ratio of two counters, as a fraction in [0,1]:
    [ratio_series t num den] gives delta(num)/delta(den) per interval
    (0 where the denominator did not move). *)
let ratio_series t num den =
  let n = series t num and d = series t den in
  List.map2
    (fun n d -> if d = 0 then 0.0 else float_of_int n /. float_of_int d)
    n d
