(** Seeded, deterministic fault injection for the fleet's self-healing
    machinery. Production code is instrumented with named {e points}
    ([Chaos.fire "work.done"]); a test (or [optlsim work --chaos])
    arms a {e schedule} of rules, each saying "the Nth time execution
    passes point P, perform this fault". Nothing is random: the same
    schedule against the same workload exercises the same fault at the
    same protocol step every run, so every cell of the fault matrix is
    a reproducible regression test rather than a flake.

    Instrumented points (and the faults that make sense at each):

    {v
    work.hello       worker -> server greeting        kill/drop/delay/truncate
    work.lease       worker lease request             kill/drop/delay/truncate
    work.replay      just before an interval replays  kill/delay
    work.done        worker result delivery           kill/drop/delay/truncate
    work.heartbeat   worker lease renewal             kill/drop/delay/truncate
    store.write      base/interval/manifest records   kill/fail/flip/truncate
    store.result.write  result-cache entries          kill/fail/flip/truncate
    v}

    The layer is process-global and mutex-guarded: a schedule armed on
    the main domain fires from worker domains too, and hit counting
    stays exact under parallel replay. When nothing is armed, [fire]
    is a single mutex-free load — the production cost is one branch. *)

(** A fault to inject. *)
type action =
  | Kill  (** raise {!Killed}: the process dies at this point *)
  | Drop  (** the operation silently does not happen (message lost) *)
  | Delay of float  (** sleep this long, then proceed (slow worker) *)
  | Truncate  (** emit a torn prefix of the data, then die *)
  | Flip_bit of int  (** corrupt this payload bit, then proceed *)
  | Fail

(** "The [hit]-th pass through [point] performs [action]". *)
type rule

(** The injected process death. Deliberately NOT an exception any
    production path catches: it must propagate out like a real crash
    (only a chaos harness catches it, standing in for the kernel). *)
exception Killed of string

(** Arm a fault schedule (replacing any previous one, counters reset). *)
val arm : rule list -> unit

(** Drop the schedule and reset every pass counter. *)
val disarm : unit -> unit

(** Did execution reach [point], and if so which fault (if any) is due
    there this time? Counts every pass, armed rules match on the count. *)
val fire : string -> action option

(** Passes recorded through [point] since the schedule was armed. *)
val hit_count : string -> int

(** Canonical schedule text; {!parse} round-trips it. *)
val to_string : rule list -> string

(** Parse a fault schedule: rules [ACTION@POINT[:HIT]] joined by [';'],
    where ACTION is [kill], [drop], [delay=SECONDS], [truncate],
    [flip=BIT] or [fail], and HIT (default 1) is which pass through the
    point fires the fault — e.g. ["kill@work.done:2;drop@work.lease"]. *)
val parse : string -> (rule list, string) result
