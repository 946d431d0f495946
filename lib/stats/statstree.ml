(** Hierarchical named event counters — the core of the PTLstats subsystem.

    Every simulator structure registers counters under a dotted path (for
    example ["ooo.commit.insns"] or ["external.cycles_in_mode.kernel"]).
    Counters are plain mutable ints behind a handle, so the hot simulation
    loop pays one array store per event. Snapshots capture the value of
    every counter at a point in simulated time; subtracting snapshots gives
    per-interval statistics, which is how the paper's time-lapse plots
    (Figures 2 and 3) are produced. *)

type counter = { id : int; path : string; mutable value : int }

type t = {
  mutable counters : counter array;
  index : (string, counter) Hashtbl.t;
  mutable n : int;
}

let create () =
  let dummy = { id = -1; path = ""; value = 0 } in
  { counters = Array.make 64 dummy; index = Hashtbl.create 64; n = 0 }

(** Register (or look up) the counter at [path]. Registering the same path
    twice returns the same counter, so independent subsystems may share a
    counter by name. *)
let counter t path =
  match Hashtbl.find_opt t.index path with
  | Some c -> c
  | None ->
    if t.n = Array.length t.counters then begin
      let bigger = Array.make (2 * t.n) t.counters.(0) in
      Array.blit t.counters 0 bigger 0 t.n;
      t.counters <- bigger
    end;
    let c = { id = t.n; path; value = 0 } in
    t.counters.(t.n) <- c;
    t.n <- t.n + 1;
    Hashtbl.add t.index path c;
    c

let incr c = c.value <- c.value + 1
let add c n = c.value <- c.value + n
let value c = c.value

let find t path = Hashtbl.find_opt t.index path

(** Current value of the counter at [path], or 0 if never registered. *)
let get t path = match find t path with Some c -> c.value | None -> 0

(** All registered paths, in registration order. *)
let paths t = List.init t.n (fun i -> t.counters.(i).path)

(** A snapshot is an immutable copy of every counter value, stamped with the
    simulated cycle at which it was taken. *)
type snapshot = { cycle : int; values : int array; snap_paths : string array }

let snapshot t ~cycle =
  {
    cycle;
    values = Array.init t.n (fun i -> t.counters.(i).value);
    snap_paths = Array.init t.n (fun i -> t.counters.(i).path);
  }

(** [delta older newer path] is the increase of [path] between two snapshots.
    Counters registered after [older] was taken count from zero. *)
let delta older newer path =
  let look s =
    let rec go i =
      if i >= Array.length s.snap_paths then 0
      else if String.equal s.snap_paths.(i) path then s.values.(i)
      else go (i + 1)
    in
    go 0
  in
  look newer - look older

(** Render all counters whose path starts with [prefix] (default all). *)
let dump ?(prefix = "") t =
  let buf = Buffer.create 1024 in
  for i = 0 to t.n - 1 do
    let c = t.counters.(i) in
    if String.length c.path >= String.length prefix
       && String.sub c.path 0 (String.length prefix) = prefix
    then Buffer.add_string buf (Printf.sprintf "%s = %d\n" c.path c.value)
  done;
  Buffer.contents buf

let reset t = Array.iter (fun c -> c.value <- 0) (Array.sub t.counters 0 t.n)
