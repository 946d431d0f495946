(** Differential fuzzing harness: generated programs run on a timed core,
    the sequential reference and (by default) the spec-table oracle;
    divergences are shrunk and reported with a majority verdict.

    Each iteration derives a per-iteration seed from the master seed,
    generates a program ({!Fuzzgen}), and co-simulates it
    ({!Ptl_hyper.Cosim}) on identical initial state, comparing committed
    register/flag/memory state at instruction-count checkpoints; in
    parallel the same image runs in lockstep against the independent
    spec-derived reference interpreter ({!Ptl_oracle.Cross}). On
    divergence of either pair the failing slot sequence is minimized
    with delta debugging ({!Shrink}), the minimal case is re-run with
    {!Ptl_trace} armed and per-instruction checkpoints, and a
    self-contained text report is emitted: the shrunk program, both
    architectural states at the first divergent instruction, the trace
    window leading up to it, the majority verdict tagging the odd model
    out, and a replay command line.

    With three models the blame is no longer ambiguous: two of
    oracle/seq/timed agreeing outvotes the third, and when seq and timed
    both diverge from each other the oracle's verdict breaks the tie.

    Everything is deterministic: two runs with the same seed and flags
    produce byte-identical reports. *)

module Rng = Ptl_util.Rng
module Context = Ptl_arch.Context
module Config = Ptl_ooo.Config
module Trace = Ptl_trace.Trace
module Cosim = Ptl_hyper.Cosim
module Flags = Ptl_isa.Flags
module Guard = Ptl_guard.Guard
module Spec = Ptl_spec.Spec
module Cross = Ptl_oracle.Cross

(* The scratch window every generated memory access lands in; compared
   quadword by quadword at each checkpoint. The private stack above it is
   not compared directly, but any stack corruption surfaces through the
   registers popped from it. *)
let mem_ranges = [ (Fuzzgen.scratch_base, Fuzzgen.scratch_bytes) ]

(* Step budget per model run: generated programs commit a few thousand
   instructions at most, so a model needing this many cycles is wedged. *)
let step_budget = 2_000_000

(** Deliberately planted core bug for harness self-tests and
    [--fuzz-inject]: once [after] instructions have committed, the model
    core's flags writes are mutated (CF forced set) after every step.
    The factory shape matches {!Cosim.validate}'s [inject]. *)
let flags_bug ~after () : Context.t -> unit =
 fun ctx ->
  if ctx.Context.insns_committed >= after then
    ctx.Context.flags <- ctx.Context.flags lor Flags.cf_mask

type divergence = {
  d_iter : int;  (** iteration that found it *)
  d_iter_seed : int;  (** per-iteration generator seed *)
  d_orig_insns : int;  (** static size before shrinking *)
  d_insns : int;  (** static size after shrinking *)
  d_after : int;  (** first divergent committed-instruction count *)
  d_pair : string;  (** which model pair disagreed first, e.g. "seq vs ooo" *)
  d_verdict : string;  (** majority verdict; [""] when the oracle is off *)
  d_listing : string list;  (** shrunk program disassembly *)
  d_diffs : string list;  (** architectural diffs of the diverging pair *)
  d_trace : string list;  (** trace window leading up to the mismatch *)
  d_report : string;  (** the full rendered report *)
}

type summary = {
  s_seed : int;
  s_core : string;
  s_iters : int;
  s_gen_insns : int;  (** total static instructions generated *)
  s_oracle_checked : int;  (** iterations cross-checked against the oracle *)
  s_oracle_unsupported : int;  (** oracle bailed: no spec row (should be 0) *)
  s_divergences : divergence list;  (** in iteration order *)
}

let default_len = 40
let default_check_every = 32

let render_report ~seed ~core ~len ~classes ~replay_extra d =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "=== optlsim fuzz divergence ===\n";
  pf "master seed     : %d\n" seed;
  pf "iteration       : %d\n" d.d_iter;
  pf "iteration seed  : %d\n" d.d_iter_seed;
  pf "core            : %s (vs seq reference)\n" core;
  pf "original program: %d instructions\n" d.d_orig_insns;
  pf "shrunk program  : %d instructions\n" d.d_insns;
  pf "first divergence: after %d committed instructions\n" d.d_after;
  pf "diverging pair  : %s\n" d.d_pair;
  if d.d_verdict <> "" then pf "verdict         : %s\n" d.d_verdict;
  pf "\n-- shrunk program --\n";
  List.iter (fun l -> pf "%s\n" l) d.d_listing;
  pf "\n-- architectural diffs (%s) --\n" d.d_pair;
  List.iter (fun l -> pf "%s\n" l) d.d_diffs;
  if d.d_trace <> [] then begin
    pf "\n-- trace window (last %d events before the mismatch) --\n"
      (List.length d.d_trace);
    List.iter (fun l -> pf "%s\n" l) d.d_trace
  end;
  let classes_flag =
    if classes = Fuzzgen.all_classes then ""
    else
      Printf.sprintf " --fuzz-classes %s"
        (String.concat "," (List.map Fuzzgen.cls_name classes))
  in
  pf "\nreplay: optlsim fuzz --fuzz-seed %d --fuzz-iters %d --fuzz-len %d --core %s%s%s\n"
    seed (d.d_iter + 1) len core classes_flag replay_extra;
  Buffer.contents buf

(** Run [iters] fuzzing iterations against [core]. [progress] is called
    after every iteration with (iteration, divergences-so-far).
    [replay_extra] is appended verbatim to the replay command line in
    reports (the CLI passes its [--fuzz-inject] flag through it).
    [oracle] (on by default) adds the spec-table reference interpreter as
    a third model, cross-checked in lockstep against the sequential core
    every iteration; [table] substitutes a mutated spec table (the
    planted-bug self-tests use {!Ptl_spec.Spec.drop_flag_write}). *)
let run ?(config = Config.tiny) ?(core = "ooo") ?inject ?guard
    ?(oracle = true) ?(table = Spec.table)
    ?(classes = Fuzzgen.all_classes) ?(len = default_len)
    ?(check_every = default_check_every) ?(trace_capacity = 4096)
    ?(trace_classes = Trace.all_classes) ?(trace_lines = 64)
    ?(replay_extra = "") ?(progress = fun _ _ -> ()) ~seed ~iters () =
  (* Guard-detected lockups and invariant violations surface as [Hung]
     stops and become shrinkable divergences; the diagnostic bundle is
     folded into the report rather than spammed to stderr on every ddmin
     probe, and degrade mode is never allowed here (falling back to the
     seq core would make the model its own reference). *)
  let guard_sink =
    match guard with Some _ -> Some (open_out "/dev/null") | None -> None
  in
  let wrap =
    match (guard, guard_sink) with
    | Some g, Some sink ->
      let g = { g with Guard.degrade = false } in
      Some (fun env ctx inst -> Guard.wrap ~config:g ~out:sink ~env ~ctx inst)
    | _ -> None
  in
  let master = Rng.create seed in
  let gen_insns = ref 0 in
  let oracle_checked = ref 0 in
  let oracle_unsup = ref 0 in
  let divs = ref [] in
  let pair_timed = Printf.sprintf "seq vs %s" core in
  let pair_oracle = "oracle vs seq" in
  for iter = 0 to iters - 1 do
    let iter_seed =
      Int64.to_int (Int64.logand (Rng.next64 master) 0x3FFF_FFFF_FFFF_FFFFL)
    in
    let rng = Rng.create iter_seed in
    let prog = Fuzzgen.generate rng ~classes ~len in
    let orig_insns = Fuzzgen.insn_count prog in
    gen_insns := !gen_insns + orig_insns;
    (* Commit bound: static size times the worst dynamic expansion (loop
       iterations, REP counts), plus slack. *)
    let max_insns = (orig_insns * 64) + 256 in
    let check slots =
      let img = Fuzzgen.build (Fuzzgen.with_slots prog slots) in
      Cosim.validate ~config ~core ?inject ?wrap ~budget:step_budget
        ~mem_ranges ~check_every ~max_insns img
    in
    let diverged slots =
      match check slots with Cosim.Agree _ -> false | Cosim.Diverged _ -> true
    in
    (* The third model: lockstep oracle-vs-seq over the same image. An
       [Unsupported] stop means the generator emitted something outside
       the spec table — counted, never reported as a divergence (the
       conformance coverage gate owns that invariant). *)
    let cross slots =
      let img = Fuzzgen.build (Fuzzgen.with_slots prog slots) in
      Cross.check ~table ~max_insns ~mem_ranges img
    in
    let cross_diverged slots =
      match cross slots with Cross.Diverged _ -> true | _ -> false
    in
    let timed_div =
      match check prog.Fuzzgen.slots with
      | Cosim.Agree _ -> false
      | Cosim.Diverged _ -> true
    in
    let oracle_div =
      if not oracle then false
      else begin
        incr oracle_checked;
        match cross prog.Fuzzgen.slots with
        | Cross.Agree _ -> false
        | Cross.Diverged _ -> true
        | Cross.Unsupported _ ->
          incr oracle_unsup;
          false
      end
    in
    if timed_div || oracle_div then begin
      (* Shrink against whichever pair(s) diverged; the disjunction keeps
         shrinking productive when the minimal case only trips one. *)
      let test =
        if timed_div && oracle_div then
          fun slots -> diverged slots || cross_diverged slots
        else if timed_div then diverged
        else cross_diverged
      in
      let slots = Shrink.minimize ~test prog.Fuzzgen.slots in
      (* Polish: if ddmin got down to one slot, prefer the smallest single
         original slot that still reproduces. *)
      let slots =
        if Array.length slots <> 1 then slots
        else begin
          let w (_, s) = Fuzzgen.slot_insns s in
          let singles =
            List.stable_sort
              (fun a b -> compare (w a) (w b))
              (Array.to_list prog.Fuzzgen.slots)
          in
          match
            List.find_opt
              (fun s -> w s < w slots.(0) && test [| s |])
              singles
          with
          | Some s -> [| s |]
          | None -> slots
        end
      in
      let shrunk = Fuzzgen.with_slots prog slots in
      let img = Fuzzgen.build shrunk in
      (* Precise replay of the minimal case: per-instruction checkpoints
         with the trace subsystem armed, so the report pins the first
         divergent instruction and carries the pipeline window. *)
      Trace.configure ~capacity:trace_capacity ~classes:trace_classes ();
      let final_t =
        Cosim.validate ~config ~core ?inject ?wrap ~budget:step_budget
          ~mem_ranges ~trace_lines ~check_every:1 ~max_insns img
      in
      Trace.disable ();
      let final_o = if oracle then Some (cross slots) else None in
      let t_div = match final_t with Cosim.Diverged _ -> true | _ -> false in
      let o_div =
        match final_o with Some (Cross.Diverged _) -> true | _ -> false
      in
      (* The diverging pair named in the report: seq-vs-timed when that
         pair reproduced on the shrunk case (it carries the pipeline
         trace), otherwise oracle-vs-seq. *)
      let pair, after, diffs, trace =
        match (final_t, final_o) with
        | Cosim.Diverged { after_insns; diffs; trace }, _ ->
          (pair_timed, after_insns, diffs, trace)
        | _, Some (Cross.Diverged { after; diffs }) ->
          (pair_oracle, after, diffs, [])
        | Cosim.Agree n, _ ->
          ( pair_timed,
            n,
            [ "divergence did not reproduce at per-instruction checkpoints" ],
            [] )
      in
      (* Majority verdict across the three models. Seq-vs-timed and
         oracle-vs-seq are already known; when both pairs disagree the
         remaining edge — oracle vs timed — breaks the tie. *)
      let verdict =
        if not oracle then ""
        else
          match (t_div, o_div) with
          | true, false ->
            Printf.sprintf "oracle and seq agree; %s is the odd model out" core
          | false, true ->
            Printf.sprintf
              "seq and %s agree; the oracle is the odd model out (spec-table \
               bug, or a bug both cores share)"
              core
          | true, true ->
            let model_m, _ =
              Cosim.run_model ~config ~core
                ?inject:(Option.map (fun f -> f ()) inject)
                ?wrap ~budget:step_budget img ~n:max_insns
            in
            let st = Cross.run_oracle ~table ~max_insns img in
            if Cross.final_diffs ~mem_ranges st model_m = [] then
              Printf.sprintf "oracle and %s agree; seq is the odd model out"
                core
            else "all three models disagree; no majority"
          | false, false -> "divergence did not reproduce on the shrunk case"
      in
      let d =
        {
          d_iter = iter;
          d_iter_seed = iter_seed;
          d_orig_insns = orig_insns;
          d_insns = Fuzzgen.insn_count shrunk;
          d_after = after;
          d_pair = pair;
          d_verdict = verdict;
          d_listing = Fuzzgen.listing img;
          d_diffs = diffs;
          d_trace = trace;
          d_report = "";
        }
      in
      let d =
        { d with d_report = render_report ~seed ~core ~len ~classes ~replay_extra d }
      in
      divs := d :: !divs
    end;
    progress iter (List.length !divs)
  done;
  (match guard_sink with Some c -> close_out c | None -> ());
  {
    s_seed = seed;
    s_core = core;
    s_iters = iters;
    s_gen_insns = !gen_insns;
    s_oracle_checked = !oracle_checked;
    s_oracle_unsupported = !oracle_unsup;
    s_divergences = List.rev !divs;
  }

(** Write one report file per divergence under [dir] (created if absent),
    named [div-seed<S>-iter<N>.txt]. Returns the paths written. *)
let write_reports ~dir summary =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun d ->
      let file =
        Filename.concat dir
          (Printf.sprintf "div-seed%d-iter%04d.txt" summary.s_seed d.d_iter)
      in
      let oc = open_out file in
      output_string oc d.d_report;
      close_out oc;
      file)
    summary.s_divergences
