(** The matched-pair design-space sweep engine. A spec names axes of the
    design space ([--sweep "cache.l2.size=256k,1m x bpred=gshare,hybrid"]);
    every leg of the cross product replays the same captured interval
    store through {!Ptl_fleet.Fleet.replay}, so per-interval CPI
    differences against the store's own configuration carry no
    workload variance, and {!Ptl_stats.Paired} ranks the legs with
    paired confidence intervals. *)

module Config := Ptl_ooo.Config
module Sample := Ptl_sample.Sample
module Store := Ptl_store.Store
module Paired := Ptl_stats.Paired

(** Why a spec was refused. *)
type error =
  | E_syntax of { spec : string; reason : string }
  | E_unknown_key of { key : string; known : string list }
  | E_bad_value of { key : string; value : string; expected : string }
  | E_empty_values of { key : string }
  | E_duplicate_axis of { key : string }
  | E_too_many_legs of { legs : int; limit : int }
  | E_bad_geometry of { leg : string; cache : string; reason : string }

(** One-line diagnostic naming the offending key or value. *)
val error_to_string : error -> string

(** One swept key and its values. *)
type axis

(** Axes in the order given; legs vary the last axis fastest. *)
type spec = axis list

(** Canonical spec text; [parse] round-trips it. *)
val to_string : spec -> string

(** Parse a sweep spec: axes [KEY=V1,V2,...] separated by a standalone
    [x] token. Every key must be known, every value must parse at its
    key's type, value lists must be non-empty, no key may appear twice,
    and the cross product is capped at 256 legs. *)
val parse : string -> (spec, error) result

(** One point of the design space. *)
type leg = {
  l_name : string;  (** "cache.l2.size=1m,bpred=gshare" *)
  l_settings : (string * string) list;
  l_config : Config.t;
  l_digest : string;  (** {!Store.config_digest} of [l_config] *)
}

(** Expand a parsed spec into concrete legs over [base]. Each leg's
    config carries the leg name (so its {!Store.config_digest} — the
    result-cache key — is a pure function of base config + settings),
    and its cache geometry is validated up front. *)
val legs : base:Config.t -> spec -> (leg list, error) result

(** One leg's replay over the store. *)
type leg_result = {
  lr_leg : leg;
  lr_result : Sample.result;
  lr_cached : int;  (** intervals answered from this leg's result cache *)
  lr_replayed : int;
  lr_quarantined : (int * string list) list;
      (** intervals this leg could not replay (see
          {!Ptl_fleet.Fleet.replayed}); they simply do not pair *)
  lr_mpki_l1d : float;  (** L1D misses per kilo-instruction (measured) *)
  lr_mpki_dtlb : float;  (** DTLB misses per kilo-instruction (measured) *)
  lr_area : float;  (** storage area of the leg's caches, KB *)
}

(** A leg's place in the report. *)
type ranked = {
  rk : leg_result;
  rk_rank : int;  (** 1 = best CPI *)
  rk_vs_base : Paired.t;  (** per-interval CPI, leg vs the base config *)
  rk_verdict : Paired.verdict;
  rk_pareto : bool;  (** on the (CPI, L1D MPKI, area) frontier *)
  rk_base : bool;  (** this row is the store's own configuration *)
}

(** A whole sweep: the base configuration and every leg, ranked. *)
type report = {
  rep_store : string;
  rep_spec : spec;
  rep_schedule : Sample.schedule;
  rep_intervals : int;
  rep_base : leg_result;
  rep_ranked : ranked list;  (** base + legs, best CPI first *)
}

(** Legs with quarantined intervals, [(leg name, indices)] in rank
    order — non-empty means the sweep report is degraded (quarantined
    windows drop out of that leg's aggregate and pair set). *)
val degraded : report -> (string * int list) list

(** Run a parsed spec over [store]: the base (manifest) configuration
    plus every leg replays the same intervals on [jobs] in-process
    domains, missing results are computed and cached, and the rows are
    ranked by CPI with paired statistics against the base. [wrap]
    interposes on every replay's core instance (e.g. a per-leg guard
    supervisor); a replay failure quarantines that (leg, interval)
    instead of aborting the sweep. *)
val run :
  ?jobs:int ->
  ?log:(string -> unit) ->
  ?wrap:(env:Ptl_arch.Env.t ->
         ctx:Ptl_arch.Context.t ->
         Ptl_ooo.Registry.instance -> Ptl_ooo.Registry.instance) ->
  Store.t -> spec -> (report, string) result

(** The sweep report: one ranked row per leg, then the degraded legs if any. *)
val render : out_channel -> report -> unit

(** [render] to a string (the determinism tests byte-compare this). *)
val render_string : report -> string
