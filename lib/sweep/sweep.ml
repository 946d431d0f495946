(** The matched-pair design-space sweep engine: what production users of
    a simulator actually do is compare machine configurations.

    A sweep spec names axes of the design space and the values to try:

    {v --sweep "cache.l2.size=256k,1m,4m x bpred=gshare,hybrid" v}

    The cross product of the axes gives the {e legs}; every leg replays
    the *same* captured interval store ({!Ptl_store.Store}) through
    {!Ptl_fleet.Fleet.replay}, so all legs share one checkpoint set
    (common random numbers), results land in the per-config-digest
    result cache, and repeated sweeps are free. Because the intervals
    are matched, the per-interval CPI {e differences} between a leg and
    the store's own (base) configuration carry none of the
    interval-to-interval workload variance: {!Ptl_stats.Paired} turns
    them into paired 95% confidence intervals that resolve deltas far
    below what independent runs can see at the same interval budget.

    The report ranks legs by CPI, classifies each as win/loss/tie
    against the base config, and marks the Pareto frontier over
    (CPI, L1D MPKI, area proxy). *)

module Config = Ptl_ooo.Config
module Cache = Ptl_mem.Cache
module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb
module Predictor = Ptl_bpred.Predictor
module Sample = Ptl_sample.Sample
module Store = Ptl_store.Store
module Fleet = Ptl_fleet.Fleet
module Paired = Ptl_stats.Paired
module Bitops = Ptl_util.Bitops
module Tbl = Ptl_util.Tablefmt

(* ---------------------------------------------------------------- *)
(* Typed errors                                                      *)
(* ---------------------------------------------------------------- *)

type error =
  | E_syntax of { spec : string; reason : string }
  | E_unknown_key of { key : string; known : string list }
  | E_bad_value of { key : string; value : string; expected : string }
  | E_empty_values of { key : string }
  | E_duplicate_axis of { key : string }
  | E_too_many_legs of { legs : int; limit : int }
  | E_bad_geometry of { leg : string; cache : string; reason : string }

let error_to_string = function
  | E_syntax { spec; reason } ->
    Printf.sprintf
      "sweep: cannot parse %S: %s (expected KEY=V1,V2[ x KEY=V1,...])" spec
      reason
  | E_unknown_key { key; known } ->
    Printf.sprintf "sweep: unknown axis key %S; known keys: %s" key
      (String.concat ", " known)
  | E_bad_value { key; value; expected } ->
    Printf.sprintf "sweep: axis %s: bad value %S (expected %s)" key value
      expected
  | E_empty_values { key } ->
    Printf.sprintf "sweep: axis %s has an empty value list" key
  | E_duplicate_axis { key } ->
    Printf.sprintf "sweep: axis %s appears twice (merge its value lists)" key
  | E_too_many_legs { legs; limit } ->
    Printf.sprintf
      "sweep: the cross product has %d legs, more than the %d-leg limit"
      legs limit
  | E_bad_geometry { leg; cache; reason } ->
    Printf.sprintf "sweep: leg %s: %s geometry invalid: %s" leg cache reason

let ( let* ) r f = match r with Error _ as e -> e | Ok x -> f x

(* ---------------------------------------------------------------- *)
(* Value parsers                                                     *)
(* ---------------------------------------------------------------- *)

(* "65536", "256k", "1m" -> bytes *)
let parse_size s =
  let len = String.length s in
  if len = 0 then None
  else begin
    let mult, digits =
      match Char.lowercase_ascii s.[len - 1] with
      | 'k' -> (1024, String.sub s 0 (len - 1))
      | 'm' -> (1024 * 1024, String.sub s 0 (len - 1))
      | '0' .. '9' -> (1, s)
      | _ -> (0, "")
    in
    if mult = 0 then None
    else
      match int_of_string_opt digits with
      | Some n when n > 0 -> Some (n * mult)
      | _ -> None
  end

let parse_bool s =
  match String.lowercase_ascii s with
  | "true" | "on" | "1" -> Some true
  | "false" | "off" | "0" -> Some false
  | _ -> None

let pos_int s =
  match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

let nonneg_int s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

(* ---------------------------------------------------------------- *)
(* The key registry: every sweepable axis of Config.t               *)
(* ---------------------------------------------------------------- *)

let with_hier c f = { c with Config.hierarchy = f c.Config.hierarchy }

let with_l1d c f =
  with_hier c (fun h -> { h with Hierarchy.l1d = f h.Hierarchy.l1d })

let with_l1i c f =
  with_hier c (fun h -> { h with Hierarchy.l1i = f h.Hierarchy.l1i })

let with_l2 c f =
  with_hier c (fun h -> { h with Hierarchy.l2 = f h.Hierarchy.l2 })

let bpred_of base = function
  | "gshare" -> Some Predictor.k8_ptlsim
  | "silicon" -> Some Predictor.k8_silicon
  | "hybrid" ->
    Some
      {
        Predictor.k8_ptlsim with
        Predictor.direction =
          Predictor.Hybrid
            { table_bits = 14; history_bits = 12; chooser_bits = 12 };
      }
  | "bimodal" ->
    Some { Predictor.k8_ptlsim with Predictor.direction = Predictor.Bimodal 14 }
  | "taken" ->
    Some { base with Predictor.direction = Predictor.Always_taken }
  | _ -> None

let tlb_of = function
  | "ptlsim" -> Some Tlb.ptlsim_config
  | "k8" -> Some Tlb.k8_config
  | _ -> None

(** One sweepable key: its value grammar (for the typed error message),
    a shape check usable at parse time, and the config transformer. *)
type key = {
  k_name : string;
  k_expected : string;
  k_check : string -> bool;
  k_apply : Config.t -> string -> Config.t;
}

let size_key name apply =
  {
    k_name = name;
    k_expected = "a power-of-two byte size, e.g. 16k, 256k, 1m";
    k_check =
      (fun v ->
        match parse_size v with
        | Some n -> Bitops.is_pow2 n && n >= 1024
        | None -> false);
    k_apply = (fun c v -> apply c (Option.get (parse_size v)));
  }

let pos_key name apply =
  {
    k_name = name;
    k_expected = "a positive integer";
    k_check = (fun v -> pos_int v <> None);
    k_apply = (fun c v -> apply c (Option.get (pos_int v)));
  }

let nonneg_key name apply =
  {
    k_name = name;
    k_expected = "a non-negative integer";
    k_check = (fun v -> nonneg_int v <> None);
    k_apply = (fun c v -> apply c (Option.get (nonneg_int v)));
  }

let bool_key name apply =
  {
    k_name = name;
    k_expected = "a boolean: true/false (or on/off, 1/0)";
    k_check = (fun v -> parse_bool v <> None);
    k_apply = (fun c v -> apply c (Option.get (parse_bool v)));
  }

let keys =
  [
    size_key "cache.l1d.size" (fun c n ->
        with_l1d c (fun l -> { l with Cache.size_bytes = n }));
    pos_key "cache.l1d.ways" (fun c n ->
        with_l1d c (fun l -> { l with Cache.ways = n }));
    size_key "cache.l1i.size" (fun c n ->
        with_l1i c (fun l -> { l with Cache.size_bytes = n }));
    size_key "cache.l2.size" (fun c n ->
        with_l2 c (fun l -> { l with Cache.size_bytes = n }));
    pos_key "cache.l2.ways" (fun c n ->
        with_l2 c (fun l -> { l with Cache.ways = n }));
    pos_key "cache.l2.latency" (fun c n ->
        with_l2 c (fun l -> { l with Cache.latency = n }));
    pos_key "mem.latency" (fun c n ->
        with_hier c (fun h -> { h with Hierarchy.mem_latency = n }));
    pos_key "mshrs" (fun c n ->
        with_hier c (fun h -> { h with Hierarchy.mshrs = n }));
    bool_key "prefetch" (fun c b ->
        with_hier c (fun h -> { h with Hierarchy.prefetch_next_line = b }));
    {
      k_name = "bpred";
      k_expected = "one of gshare, hybrid, bimodal, taken, silicon";
      k_check = (fun v -> bpred_of Predictor.k8_ptlsim v <> None);
      k_apply =
        (fun c v ->
          { c with Config.bpred = Option.get (bpred_of c.Config.bpred v) });
    };
    {
      k_name = "dtlb";
      k_expected = "one of ptlsim, k8";
      k_check = (fun v -> tlb_of v <> None);
      k_apply = (fun c v -> { c with Config.dtlb = Option.get (tlb_of v) });
    };
    {
      k_name = "itlb";
      k_expected = "one of ptlsim, k8";
      k_check = (fun v -> tlb_of v <> None);
      k_apply = (fun c v -> { c with Config.itlb = Option.get (tlb_of v) });
    };
    pos_key "rob.size" (fun c n -> { c with Config.rob_size = n });
    pos_key "lsq.size" (fun c n -> { c with Config.lsq_size = n });
    {
      k_name = "phys.regs";
      k_expected = "an integer >= 40 (the rename pool must cover the \
                    architectural registers)";
      k_check = (fun v -> match pos_int v with Some n -> n >= 40 | None -> false);
      k_apply = (fun c v -> { c with Config.phys_regs = Option.get (pos_int v) });
    };
    bool_key "load.hoisting" (fun c b -> { c with Config.load_hoisting = b });
    nonneg_key "redirect.penalty" (fun c n ->
        { c with Config.redirect_penalty = n });
    (* virtual-memory scenario axes (lib/vm): page-walk caches, hugepage
       TLB entries, demand paging and the reclaim loop *)
    nonneg_key "pwc.entries" (fun c n -> { c with Config.pwc_entries = n });
    bool_key "tlb.hugepages" (fun c b -> { c with Config.tlb_hugepages = b });
    bool_key "vm.demand_paging" (fun c b ->
        { c with Config.vm_demand_paging = b });
    nonneg_key "vm.reclaim.watermark" (fun c n ->
        { c with Config.vm_reclaim_watermark = n });
    pos_key "vm.reclaim.batch" (fun c n ->
        { c with Config.vm_reclaim_batch = n });
  ]

let known_keys = List.map (fun k -> k.k_name) keys
let find_key name = List.find_opt (fun k -> k.k_name = name) keys

(* ---------------------------------------------------------------- *)
(* Spec parsing                                                      *)
(* ---------------------------------------------------------------- *)

type axis = { ax_key : string; ax_values : string list }
type spec = axis list

(** Canonical spec text; [parse] round-trips it. *)
let to_string (s : spec) =
  String.concat " x "
    (List.map
       (fun a -> a.ax_key ^ "=" ^ String.concat "," a.ax_values)
       s)

let max_legs = 256

let parse_axis spec token =
  match String.index_opt token '=' with
  | None ->
    Error
      (E_syntax
         { spec; reason = Printf.sprintf "axis %S has no '='" token })
  | Some i ->
    let key = String.sub token 0 i in
    let vals = String.sub token (i + 1) (String.length token - i - 1) in
    (match find_key key with
    | None -> Error (E_unknown_key { key; known = known_keys })
    | Some k ->
      if vals = "" then Error (E_empty_values { key })
      else begin
        let values = String.split_on_char ',' vals in
        if List.exists (fun v -> v = "") values then
          Error (E_empty_values { key })
        else
          let rec check = function
            | [] -> Ok { ax_key = key; ax_values = values }
            | v :: rest ->
              if k.k_check v then check rest
              else
                Error (E_bad_value { key; value = v; expected = k.k_expected })
          in
          check values
      end)

(** Parse a sweep spec: axes [KEY=V1,V2,...] separated by a standalone
    [x] token. Every key must be known, every value must parse at its
    key's type, value lists must be non-empty, no key may appear twice,
    and the cross product is capped at {!max_legs}. *)
let parse spec_text : (spec, error) result =
  let tokens =
    String.split_on_char ' ' spec_text
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  let rec go acc expecting_axis = function
    | [] ->
      if expecting_axis && acc = [] then
        Error (E_syntax { spec = spec_text; reason = "empty spec" })
      else if expecting_axis then
        Error
          (E_syntax { spec = spec_text; reason = "trailing 'x' with no axis" })
      else Ok (List.rev acc)
    | "x" :: rest ->
      if expecting_axis then
        Error
          (E_syntax
             { spec = spec_text; reason = "'x' where an axis was expected" })
      else go acc true rest
    | token :: rest ->
      if not expecting_axis then
        Error
          (E_syntax
             {
               spec = spec_text;
               reason =
                 Printf.sprintf "axes must be separated by 'x' (near %S)"
                   token;
             })
      else
        let* axis = parse_axis spec_text token in
        go (axis :: acc) false rest
  in
  let* axes = go [] true tokens in
  let rec dup_check seen = function
    | [] -> Ok ()
    | a :: rest ->
      if List.mem a.ax_key seen then Error (E_duplicate_axis { key = a.ax_key })
      else dup_check (a.ax_key :: seen) rest
  in
  let* () = dup_check [] axes in
  let legs =
    List.fold_left (fun acc a -> acc * List.length a.ax_values) 1 axes
  in
  if legs > max_legs then Error (E_too_many_legs { legs; limit = max_legs })
  else Ok axes

(** Legs in the cross product of [s]'s axes: first axis varies slowest
    (odometer order). *)
let cross (s : spec) : (string * string) list list =
  List.fold_left
    (fun acc a ->
      List.concat_map
        (fun prefix ->
          List.map (fun v -> prefix @ [ (a.ax_key, v) ]) a.ax_values)
        acc)
    [ [] ] s

(* ---------------------------------------------------------------- *)
(* Legs                                                              *)
(* ---------------------------------------------------------------- *)

type leg = {
  l_name : string;  (** "cache.l2.size=1m,bpred=gshare" *)
  l_settings : (string * string) list;
  l_config : Config.t;
  l_digest : string;  (** {!Store.config_digest} of [l_config] *)
}

let leg_name settings =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) settings)

(* a bad leg is a typed error at spec time instead of an
   Invalid_argument from Cache.create mid-replay *)
let check_cache_geometry ~leg (c : Cache.config) =
  Result.map_error
    (fun reason -> E_bad_geometry { leg; cache = c.Cache.name; reason })
    (Cache.check_geometry c)

(** Expand a parsed spec into concrete legs over [base]. Each leg's
    config carries the leg name (so its {!Store.config_digest} — the
    result-cache key — is a pure function of base config + settings),
    and its cache geometry is validated up front. *)
let legs ~(base : Config.t) (s : spec) : (leg list, error) result =
  let make settings =
    let name = leg_name settings in
    let config =
      List.fold_left
        (fun c (k, v) -> (Option.get (find_key k)).k_apply c v)
        base settings
    in
    let config = { config with Config.name = base.Config.name ^ "+" ^ name } in
    let h = config.Config.hierarchy in
    let* () = check_cache_geometry ~leg:name h.Hierarchy.l1d in
    let* () = check_cache_geometry ~leg:name h.Hierarchy.l1i in
    let* () = check_cache_geometry ~leg:name h.Hierarchy.l2 in
    Ok
      {
        l_name = name;
        l_settings = settings;
        l_config = config;
        l_digest = Store.config_digest config;
      }
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | settings :: rest ->
      let* leg = make settings in
      go (leg :: acc) rest
  in
  go [] (cross s)

(* ---------------------------------------------------------------- *)
(* Area proxy                                                        *)
(* ---------------------------------------------------------------- *)

(** A deterministic silicon-area proxy in KB-equivalents: SRAM bytes of
    the caches, TLBs, predictor and rename/window structures. Crude on
    purpose — it exists so the Pareto frontier has a cost axis, not to
    model any real floorplan. *)
let area_kb (c : Config.t) =
  let h = c.Config.hierarchy in
  let cache_bytes =
    h.Hierarchy.l1d.Cache.size_bytes + h.Hierarchy.l1i.Cache.size_bytes
    + h.Hierarchy.l2.Cache.size_bytes
    + (match h.Hierarchy.l3 with Some l3 -> l3.Cache.size_bytes | None -> 0)
  in
  let dir_entries =
    match c.Config.bpred.Predictor.direction with
    | Predictor.Always_taken -> 0
    | Predictor.Saturating b | Predictor.Bimodal b -> 1 lsl b
    | Predictor.Gshare { table_bits; _ } -> 1 lsl table_bits
    | Predictor.Hybrid { table_bits; chooser_bits; _ } ->
      (2 lsl table_bits) + (1 lsl chooser_bits)
  in
  (* 2-bit direction counters; 8 bytes per BTB/RAS entry *)
  let bpred_bytes =
    (dir_entries / 4)
    + (8 * c.Config.bpred.Predictor.btb_entries)
    + (8 * c.Config.bpred.Predictor.ras_entries)
  in
  let tlb_entries (t : Tlb.config) =
    t.Tlb.l1_entries
    + (match t.Tlb.l2 with Some (e, _) -> e | None -> 0)
    + t.Tlb.pde_entries
  in
  let tlb_bytes = 16 * (tlb_entries c.Config.dtlb + tlb_entries c.Config.itlb) in
  let core_bytes =
    (16 * c.Config.phys_regs) + (32 * (c.Config.rob_size + c.Config.lsq_size))
  in
  float_of_int (cache_bytes + bpred_bytes + tlb_bytes + core_bytes) /. 1024.0

(* ---------------------------------------------------------------- *)
(* The driver: every leg over the same interval store                *)
(* ---------------------------------------------------------------- *)

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
  lr_area : float;  (** {!area_kb} of the leg's config *)
}

type ranked = {
  rk : leg_result;
  rk_rank : int;  (** 1 = best CPI *)
  rk_vs_base : Paired.t;  (** per-interval CPI, leg vs the base config *)
  rk_verdict : Paired.verdict;
  rk_pareto : bool;  (** on the (CPI, L1D MPKI, area) frontier *)
  rk_base : bool;  (** this row is the store's own configuration *)
}

type report = {
  rep_store : string;
  rep_spec : spec;
  rep_schedule : Sample.schedule;
  rep_intervals : int;
  rep_base : leg_result;
  rep_ranked : ranked list;  (** base + legs, best CPI first *)
}

let mpki r ~insns path =
  if insns = 0 then 0.0
  else float_of_int (Sample.result_stat r path) *. 1000.0 /. float_of_int insns

let leg_metrics ~core (leg : leg) (rp : Fleet.replayed) =
  let r = rp.Fleet.rp_result in
  let insns = r.Sample.measured_insns in
  {
    lr_leg = leg;
    lr_result = r;
    lr_cached = rp.Fleet.rp_cached;
    lr_replayed = rp.Fleet.rp_replayed;
    lr_quarantined = rp.Fleet.rp_quarantined;
    lr_mpki_l1d = mpki r ~insns (core ^ ".mem.L1D.misses");
    lr_mpki_dtlb = mpki r ~insns (core ^ ".dcache.dtlb_misses");
    lr_area = area_kb leg.l_config;
  }

(* match intervals by capture index: only windows both legs measured
   form pairs (a leg whose guest halts early simply contributes fewer) *)
let paired_cpis (a : Sample.result) (b : Sample.result) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun iv -> Hashtbl.replace tbl iv.Sample.iv_index iv.Sample.iv_cpi)
    a.Sample.intervals;
  let pairs =
    List.filter_map
      (fun iv ->
        match Hashtbl.find_opt tbl iv.Sample.iv_index with
        | Some cpi_a -> Some (cpi_a, iv.Sample.iv_cpi)
        | None -> None)
      b.Sample.intervals
  in
  ( Array.of_list (List.map fst pairs),
    Array.of_list (List.map snd pairs) )

let dominates a b =
  (* a dominates b: no worse on every axis, strictly better on one *)
  let (ca, ma, aa) = a and (cb, mb, ab) = b in
  ca <= cb && ma <= mb && aa <= ab && (ca < cb || ma < mb || aa < ab)

(** Legs with quarantined intervals, [(leg name, indices)] in rank
    order — non-empty means the sweep report is degraded (quarantined
    windows drop out of that leg's aggregate and pair set). *)
let degraded (r : report) =
  List.filter_map
    (fun rk ->
      match rk.rk.lr_quarantined with
      | [] -> None
      | q -> Some (rk.rk.lr_leg.l_name, List.map fst q))
    r.rep_ranked

(** Run a parsed spec over [store]: the base (manifest) configuration
    plus every leg replays the same intervals on [jobs] in-process
    domains, missing results are computed and cached, and the rows are
    ranked by CPI with paired statistics against the base. [wrap]
    interposes on every replay's core instance (e.g. a per-leg guard
    supervisor); a replay failure quarantines that (leg, interval)
    instead of aborting the sweep. *)
let run ?(jobs = 1) ?(log = fun _ -> ()) ?wrap store (s : spec) :
    (report, string) result =
  let m = Store.manifest store in
  let base_config = m.Store.m_config in
  let* sweep_legs =
    match legs ~base:base_config s with
    | Ok l -> Ok l
    | Error e -> Error (error_to_string e)
  in
  let cached = Store.cached_digests store in
  log
    (Printf.sprintf "sweep: %d leg(s) + base over %d interval(s); %d \
                     config(s) already in the result cache"
       (List.length sweep_legs) m.Store.m_count (List.length cached));
  let replay_leg name config =
    match Fleet.replay ~jobs ~config ?wrap store with
    | Ok rp ->
      log
        (Printf.sprintf "sweep: leg %s: %d cached, %d replayed%s" name
           rp.Fleet.rp_cached rp.Fleet.rp_replayed
           (match rp.Fleet.rp_quarantined with
           | [] -> ""
           | q -> Printf.sprintf ", %d quarantined" (List.length q)));
      Ok rp
    | Error e -> Error (Store.error_to_string e)
  in
  let base_leg =
    {
      l_name = "(base)";
      l_settings = [];
      l_config = base_config;
      l_digest = m.Store.m_config_digest;
    }
  in
  let* base_rp = replay_leg base_leg.l_name base_config in
  let core = m.Store.m_core in
  let base_lr = leg_metrics ~core base_leg base_rp in
  let rec run_legs acc = function
    | [] -> Ok (List.rev acc)
    | leg :: rest ->
      let* rp = replay_leg leg.l_name leg.l_config in
      run_legs (leg_metrics ~core leg rp :: acc) rest
  in
  let* leg_lrs = run_legs [] sweep_legs in
  let rows = base_lr :: leg_lrs in
  let points =
    List.map (fun lr -> (lr.lr_result.Sample.cpi, lr.lr_mpki_l1d, lr.lr_area)) rows
  in
  let pareto lr =
    let p = (lr.lr_result.Sample.cpi, lr.lr_mpki_l1d, lr.lr_area) in
    not (List.exists (fun q -> dominates q p) points)
  in
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.lr_result.Sample.cpi b.lr_result.Sample.cpi with
        | 0 -> String.compare a.lr_leg.l_name b.lr_leg.l_name
        | c -> c)
      rows
  in
  let ranked =
    List.mapi
      (fun i lr ->
        let baseline, candidate = paired_cpis base_lr.lr_result lr.lr_result in
        let cmp = Paired.compare ~baseline ~candidate in
        {
          rk = lr;
          rk_rank = i + 1;
          rk_vs_base = cmp;
          rk_verdict = Paired.verdict cmp;
          rk_pareto = pareto lr;
          rk_base = lr.lr_leg.l_name = "(base)";
        })
      sorted
  in
  Ok
    {
      rep_store = Store.dir store;
      rep_spec = s;
      rep_schedule = Store.schedule m;
      rep_intervals = m.Store.m_count;
      rep_base = base_lr;
      rep_ranked = ranked;
    }

(* ---------------------------------------------------------------- *)
(* Report rendering (deterministic: same store + spec = same bytes)   *)
(* ---------------------------------------------------------------- *)

let render oc (r : report) =
  let s = r.rep_schedule in
  Printf.fprintf oc
    "sweep over %d matched interval(s) (schedule ff=%d/warmup=%d/measure=%d)\n"
    r.rep_intervals s.Sample.ff_insns s.Sample.warmup_insns
    s.Sample.measure_insns;
  Printf.fprintf oc "spec: %s\n" (to_string r.rep_spec);
  let rows =
    List.map
      (fun rk ->
        let lr = rk.rk in
        let cmp = rk.rk_vs_base in
        [|
          string_of_int rk.rk_rank;
          lr.lr_leg.l_name;
          Printf.sprintf "%.4f" lr.lr_result.Sample.cpi;
          (if rk.rk_base then "-"
           else Printf.sprintf "%+.4f" cmp.Paired.delta_mean);
          (if rk.rk_base then "-"
           else Printf.sprintf "%.4f" cmp.Paired.delta_ci95);
          (if rk.rk_base then "-"
           else Paired.verdict_to_string rk.rk_verdict);
          Printf.sprintf "%.3f" lr.lr_mpki_l1d;
          Printf.sprintf "%.3f" lr.lr_mpki_dtlb;
          Printf.sprintf "%.0f" lr.lr_area;
          (if rk.rk_pareto then "*" else "");
        |])
      r.rep_ranked
  in
  output_string oc
    (Tbl.render
       ~headers:
         [|
           "rank"; "leg"; "cpi"; "dCPI"; "+/-95%"; "verdict"; "L1D MPKI";
           "DTLB MPKI"; "area KB"; "pareto";
         |]
       ~aligns:
         [|
           Tbl.Right; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left;
           Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left;
         |]
       rows);
  output_string oc "\n";
  let frontier =
    List.filter_map
      (fun rk -> if rk.rk_pareto then Some rk.rk.lr_leg.l_name else None)
      r.rep_ranked
  in
  Printf.fprintf oc "pareto frontier (cpi, L1D MPKI, area): %s\n"
    (String.concat ", " frontier);
  (* the matched-pair payoff, printed for the best non-base leg *)
  (match
     List.find_opt (fun rk -> not rk.rk_base) r.rep_ranked
   with
  | None -> ()
  | Some rk ->
    let cmp = rk.rk_vs_base in
    Printf.fprintf oc
      "best leg %s: dCPI %+.4f, paired 95%% CI %.4f vs independent-runs CI \
       %.4f (%.1fx tighter, %d pairs)\n"
      rk.rk.lr_leg.l_name cmp.Paired.delta_mean cmp.Paired.delta_ci95
      cmp.Paired.indep_ci95
      (if cmp.Paired.delta_ci95 > 0.0 then
         cmp.Paired.indep_ci95 /. cmp.Paired.delta_ci95
       else 0.0)
      cmp.Paired.n);
  (* only when something was quarantined: healthy sweeps render
     byte-identically to the pre-quarantine engine *)
  match degraded r with
  | [] -> ()
  | d ->
    Printf.fprintf oc
      "DEGRADED: %d leg(s) have quarantined interval(s); those windows \
       drop out of the leg's aggregate and pair set\n"
      (List.length d);
    List.iter
      (fun (name, idxs) ->
        Printf.fprintf oc "  %s: interval(s) %s\n" name
          (String.concat "," (List.map string_of_int idxs)))
      d

(** [render] to a string (the determinism tests byte-compare this). *)
let render_string r =
  let tmp = Filename.temp_file "optlsim_sweep" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let ch = open_out tmp in
      render ch r;
      close_out ch;
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))
