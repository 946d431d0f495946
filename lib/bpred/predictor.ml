(** Branch prediction: the paper's configurable predictor suite (§2.2) —
    "various models including a hybrid gshare based predictor, bimodal
    predictors, saturating counters" — plus a branch target buffer and a
    checkpointable return address stack.

    Direction history is updated at commit (deterministic, standard
    simplification); the RAS is speculatively updated at fetch and repaired
    from checkpoints on misprediction, since call/return imbalance is the
    error mode that actually matters there. *)

open Ptl_util
module Stats = Ptl_stats.Statstree

type direction_config =
  | Always_taken
  | Saturating of int  (* table_bits: per-RIP 2-bit counters, no history *)
  | Bimodal of int  (* identical structure; kept distinct for configs *)
  | Gshare of { table_bits : int; history_bits : int }
  | Hybrid of { table_bits : int; history_bits : int; chooser_bits : int }

type config = {
  direction : direction_config;
  btb_entries : int;
  btb_ways : int;
  ras_entries : int;
}

(** The paper's PTLsim-as-K8 configuration: a 16K-entry gshare-like global
    history predictor (§5). *)
let k8_ptlsim =
  {
    direction = Gshare { table_bits = 14; history_bits = 12 };
    btb_entries = 2048;
    btb_ways = 4;
    ras_entries = 24;
  }

(** The reference-silicon variant: a structurally different global-history
    predictor (smaller table, shorter history). On the paper's workload the
    real chip mispredicted ~5.8% more than PTLsim's model; on our synthetic
    branch mix the two configurations land within ~1.5% of each other —
    both at the paper's ~4%% absolute rate — because the mix lacks the
    history-hungry control flow where the structures separate (noted in
    EXPERIMENTS.md). *)
let k8_silicon =
  { k8_ptlsim with direction = Gshare { table_bits = 13; history_bits = 10 } }

type t = {
  config : config;
  counters : int array;  (* 2-bit saturating counters *)
  chooser : int array;  (* hybrid only: picks gshare vs bimodal *)
  bimodal_tbl : int array;  (* hybrid's second component *)
  mutable history : int;
  history_mask : int;
  table_mask : int;
  (* BTB *)
  btb_tags : int64 array;
  btb_targets : int64 array;
  btb_lru : int array;
  mutable btb_tick : int;
  (* RAS *)
  ras : int64 array;
  mutable ras_top : int;  (* index of next free slot *)
  (* stats *)
  s_predicts : Stats.counter;
  s_mispredicts : Stats.counter;
  s_btb_hits : Stats.counter;
  s_btb_misses : Stats.counter;
  s_ras_pops : Stats.counter;
}

let table_bits_of = function
  | Always_taken -> 1
  | Saturating n | Bimodal n -> n
  | Gshare { table_bits; _ } | Hybrid { table_bits; _ } -> table_bits

let history_bits_of = function
  | Always_taken | Saturating _ | Bimodal _ -> 0
  | Gshare { history_bits; _ } | Hybrid { history_bits; _ } -> history_bits

let create ?(prefix = "bpred") stats config =
  let tb = table_bits_of config.direction in
  let hb = history_bits_of config.direction in
  let c suffix = Stats.counter stats (prefix ^ "." ^ suffix) in
  let btb_sets = config.btb_entries / config.btb_ways in
  if btb_sets * config.btb_ways <> config.btb_entries then
    invalid_arg "Predictor: btb geometry";
  {
    config;
    counters = Array.make (1 lsl tb) 1 (* weakly not-taken *);
    chooser =
      (match config.direction with
      | Hybrid { chooser_bits; _ } -> Array.make (1 lsl chooser_bits) 2
      | _ -> [||]);
    bimodal_tbl =
      (match config.direction with
      | Hybrid { table_bits; _ } -> Array.make (1 lsl table_bits) 1
      | _ -> [||]);
    history = 0;
    history_mask = (1 lsl hb) - 1;
    table_mask = (1 lsl tb) - 1;
    btb_tags = Array.make config.btb_entries (-1L);
    btb_targets = Array.make config.btb_entries 0L;
    btb_lru = Array.make config.btb_entries 0;
    btb_tick = 0;
    ras = Array.make config.ras_entries 0L;
    ras_top = 0;
    s_predicts = c "predicts";
    s_mispredicts = c "mispredicts";
    s_btb_hits = c "btb_hits";
    s_btb_misses = c "btb_misses";
    s_ras_pops = c "ras_pops";
  }

let rip_index t rip = Bitops.fold64 (Int64.shift_right_logical rip 1) 16 land t.table_mask

let gshare_index t rip =
  rip_index t rip lxor (t.history land t.history_mask land t.table_mask)

let counter_taken c = c >= 2

let bump arr i taken =
  arr.(i) <- (if taken then min 3 (arr.(i) + 1) else max 0 (arr.(i) - 1))

(** Predict the direction of the conditional branch at [rip]. *)
let predict_cond t ~rip =
  Stats.incr t.s_predicts;
  let taken =
    match t.config.direction with
    | Always_taken -> true
    | Saturating _ | Bimodal _ -> counter_taken t.counters.(rip_index t rip)
    | Gshare _ -> counter_taken t.counters.(gshare_index t rip)
    | Hybrid { chooser_bits; _ } ->
      let ci = rip_index t rip land ((1 lsl chooser_bits) - 1) in
      if counter_taken t.chooser.(ci) then
        counter_taken t.counters.(gshare_index t rip)
      else counter_taken t.bimodal_tbl.(rip_index t rip)
  in
  if !Ptl_trace.Trace.on then
    Ptl_trace.Trace.emit ~rip
      ~tag:(if taken then "taken" else "nt")
      Ptl_trace.Trace.Bpred_predict;
  taken

(** Train at commit. [mispredicted] is accounted by the caller's pipeline;
    here it only feeds the misprediction counter. *)
let update_cond t ~rip ~taken ~mispredicted =
  if mispredicted then Stats.incr t.s_mispredicts;
  if !Ptl_trace.Trace.on then
    Ptl_trace.Trace.emit ~rip
      ~tag:(if mispredicted then "misp" else "ok")
      Ptl_trace.Trace.Bpred_update;
  (match t.config.direction with
  | Always_taken -> ()
  | Saturating _ | Bimodal _ -> bump t.counters (rip_index t rip) taken
  | Gshare _ -> bump t.counters (gshare_index t rip) taken
  | Hybrid { chooser_bits; _ } ->
    let gi = gshare_index t rip and bi = rip_index t rip in
    let g_correct = counter_taken t.counters.(gi) = taken in
    let b_correct = counter_taken t.bimodal_tbl.(bi) = taken in
    let ci = bi land ((1 lsl chooser_bits) - 1) in
    if g_correct <> b_correct then bump t.chooser ci g_correct;
    bump t.counters gi taken;
    bump t.bimodal_tbl bi taken);
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land t.history_mask

(* --- functional warming (sampled simulation) --- *)

(** Train the direction tables and global history as [update_cond] would,
    with no prediction made, no statistics and no trace events. The
    hybrid chooser trains against what each component would have
    predicted, exactly as in the timed path. *)
let warm_cond t ~rip ~taken =
  (match t.config.direction with
  | Always_taken -> ()
  | Saturating _ | Bimodal _ -> bump t.counters (rip_index t rip) taken
  | Gshare _ -> bump t.counters (gshare_index t rip) taken
  | Hybrid { chooser_bits; _ } ->
    let gi = gshare_index t rip and bi = rip_index t rip in
    let g_correct = counter_taken t.counters.(gi) = taken in
    let b_correct = counter_taken t.bimodal_tbl.(bi) = taken in
    let ci = bi land ((1 lsl chooser_bits) - 1) in
    if g_correct <> b_correct then bump t.chooser ci g_correct;
    bump t.counters gi taken;
    bump t.bimodal_tbl bi taken);
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land t.history_mask

(* --- BTB --- *)

let btb_set t rip =
  let sets = Array.length t.btb_tags / t.config.btb_ways in
  (* xor-mix two shifts so short-strided branch addresses spread over all
     sets instead of aliasing into a few *)
  let h =
    Int64.to_int
      (Int64.logand
         (Int64.logxor
            (Int64.shift_right_logical rip 1)
            (Int64.shift_right_logical rip 6))
         0x3FFFFFFFL)
  in
  h land (sets - 1)

(** Predicted target of the (indirect or direct) branch at [rip]. *)
let predict_target t ~rip =
  let s = btb_set t rip * t.config.btb_ways in
  let rec go w =
    if w >= t.config.btb_ways then begin
      Stats.incr t.s_btb_misses;
      None
    end
    else if t.btb_tags.(s + w) = rip then begin
      Stats.incr t.s_btb_hits;
      t.btb_tick <- t.btb_tick + 1;
      t.btb_lru.(s + w) <- t.btb_tick;
      Some t.btb_targets.(s + w)
    end
    else go (w + 1)
  in
  go 0

let update_target t ~rip ~target =
  let s = btb_set t rip * t.config.btb_ways in
  let victim = ref 0 and best = ref max_int in
  (try
     for w = 0 to t.config.btb_ways - 1 do
       if t.btb_tags.(s + w) = rip then begin
         victim := w;
         raise Exit
       end;
       if t.btb_lru.(s + w) < !best then begin
         best := t.btb_lru.(s + w);
         victim := w
       end
     done
   with Exit -> ());
  t.btb_tick <- t.btb_tick + 1;
  t.btb_tags.(s + !victim) <- rip;
  t.btb_targets.(s + !victim) <- target;
  t.btb_lru.(s + !victim) <- t.btb_tick

(** Warm the BTB: refresh recency when an entry for [rip] exists
    (correcting a stale target in place), otherwise install one — the
    state changes of a predict/update round with no statistics or trace
    events. *)
let warm_target t ~rip ~target =
  let s = btb_set t rip * t.config.btb_ways in
  let rec go w =
    if w >= t.config.btb_ways then update_target t ~rip ~target
    else if t.btb_tags.(s + w) = rip then begin
      t.btb_tick <- t.btb_tick + 1;
      t.btb_lru.(s + w) <- t.btb_tick;
      t.btb_targets.(s + w) <- target
    end
    else go (w + 1)
  in
  go 0

(* --- RAS --- *)

type ras_checkpoint = { ck_top : int; ck_value : int64 }

(** Speculatively push a return address at fetch (calls). *)
let ras_push t addr =
  t.ras.(t.ras_top mod Array.length t.ras) <- addr;
  t.ras_top <- t.ras_top + 1

(** Speculatively pop a predicted return address (rets). *)
let ras_pop t =
  Stats.incr t.s_ras_pops;
  if t.ras_top = 0 then None
  else begin
    t.ras_top <- t.ras_top - 1;
    Some t.ras.(t.ras_top mod Array.length t.ras)
  end

(** Warm the RAS: push the return address on calls, drop the top on
    returns, with no pop statistics. Keeps call/return depth aligned with
    the architectural stack across fast-forward phases. *)
let warm_ras t ~call ~ret ~next_rip =
  if call then ras_push t next_rip
  else if ret && t.ras_top > 0 then t.ras_top <- t.ras_top - 1

(** Capture enough state to undo speculative RAS updates. *)
let ras_checkpoint t =
  { ck_top = t.ras_top; ck_value = t.ras.(t.ras_top mod Array.length t.ras) }

let ras_restore t ck =
  t.ras_top <- ck.ck_top;
  t.ras.(ck.ck_top mod Array.length t.ras) <- ck.ck_value

(* ---- checkpointing (sampled-simulation parallel workers) ---- *)

(** Deep copy of every predictor table: direction counters, hybrid
    chooser and bimodal component, global history, the whole BTB
    (tags/targets/recency/tick) and the RAS with its cursor. Statistics
    stay with the owning tree. *)
type snapshot = {
  sn_counters : int array;
  sn_chooser : int array;
  sn_bimodal : int array;
  sn_history : int;
  sn_btb_tags : int64 array;
  sn_btb_targets : int64 array;
  sn_btb_lru : int array;
  sn_btb_tick : int;
  sn_ras : int64 array;
  sn_ras_top : int;
}

let snapshot t =
  {
    sn_counters = Array.copy t.counters;
    sn_chooser = Array.copy t.chooser;
    sn_bimodal = Array.copy t.bimodal_tbl;
    sn_history = t.history;
    sn_btb_tags = Array.copy t.btb_tags;
    sn_btb_targets = Array.copy t.btb_targets;
    sn_btb_lru = Array.copy t.btb_lru;
    sn_btb_tick = t.btb_tick;
    sn_ras = Array.copy t.ras;
    sn_ras_top = t.ras_top;
  }

(** Whether [snapshot] came from a predictor of this configuration
    (every table the same size) — the precondition of {!restore}. *)
let fits t snapshot =
  Array.length snapshot.sn_counters = Array.length t.counters
  && Array.length snapshot.sn_chooser = Array.length t.chooser
  && Array.length snapshot.sn_bimodal = Array.length t.bimodal_tbl
  && Array.length snapshot.sn_btb_tags = Array.length t.btb_tags
  && Array.length snapshot.sn_btb_targets = Array.length t.btb_targets
  && Array.length snapshot.sn_btb_lru = Array.length t.btb_lru
  && Array.length snapshot.sn_ras = Array.length t.ras

let restore t ~snapshot =
  if Array.length snapshot.sn_counters <> Array.length t.counters then
    invalid_arg "Predictor.restore: geometry mismatch";
  Array.blit snapshot.sn_counters 0 t.counters 0 (Array.length t.counters);
  Array.blit snapshot.sn_chooser 0 t.chooser 0 (Array.length t.chooser);
  Array.blit snapshot.sn_bimodal 0 t.bimodal_tbl 0 (Array.length t.bimodal_tbl);
  t.history <- snapshot.sn_history;
  Array.blit snapshot.sn_btb_tags 0 t.btb_tags 0 (Array.length t.btb_tags);
  Array.blit snapshot.sn_btb_targets 0 t.btb_targets 0
    (Array.length t.btb_targets);
  Array.blit snapshot.sn_btb_lru 0 t.btb_lru 0 (Array.length t.btb_lru);
  t.btb_tick <- snapshot.sn_btb_tick;
  Array.blit snapshot.sn_ras 0 t.ras 0 (Array.length t.ras);
  t.ras_top <- snapshot.sn_ras_top

let diff_array note name live snap to_str =
  if Array.length live <> Array.length snap then
    note (Printf.sprintf "%s: length %d vs %d" name (Array.length live)
            (Array.length snap))
  else
    Array.iteri
      (fun i v ->
        if v <> snap.(i) then
          note
            (Printf.sprintf "%s[%d]: %s vs %s" name i (to_str v)
               (to_str snap.(i))))
      live

(** Compare the live predictor state against a snapshot; returns one line
    per mismatch (empty = exact). *)
let diff t snapshot =
  let out = ref [] in
  let note s = out := s :: !out in
  let istr = string_of_int and lstr = Printf.sprintf "%#Lx" in
  diff_array note "bpred.counters" t.counters snapshot.sn_counters istr;
  diff_array note "bpred.chooser" t.chooser snapshot.sn_chooser istr;
  diff_array note "bpred.bimodal" t.bimodal_tbl snapshot.sn_bimodal istr;
  if t.history <> snapshot.sn_history then
    note
      (Printf.sprintf "bpred.history: %#x vs %#x" t.history
         snapshot.sn_history);
  diff_array note "bpred.btb_tags" t.btb_tags snapshot.sn_btb_tags lstr;
  diff_array note "bpred.btb_targets" t.btb_targets snapshot.sn_btb_targets
    lstr;
  diff_array note "bpred.btb_lru" t.btb_lru snapshot.sn_btb_lru istr;
  if t.btb_tick <> snapshot.sn_btb_tick then
    note
      (Printf.sprintf "bpred.btb_tick: %d vs %d" t.btb_tick
         snapshot.sn_btb_tick);
  diff_array note "bpred.ras" t.ras snapshot.sn_ras lstr;
  if t.ras_top <> snapshot.sn_ras_top then
    note
      (Printf.sprintf "bpred.ras_top: %d vs %d" t.ras_top snapshot.sn_ras_top);
  List.rev !out
