(** Multi-core simulation driver.

    "To support multi-processor machines with many VCPUs, multiple core
    instances can operate in parallel; the simulator control logic
    automatically advances each core by one cycle in round robin order and
    provides memory synchronization facilities shared by all cores" (§2.2).

    Cores share guest physical memory, the basic block cache (so
    self-modifying code invalidates globally), the interlock controller
    (cross-core LOCK semantics) and a coherence directory. Each core has a
    private cache hierarchy, TLBs and branch predictor; directory penalties
    are installed into every hierarchy, with "instant visibility" (zero
    penalty, the released PTLsim's default) or MOESI with real transfer
    costs (the paper's future-work model, implemented here). *)

module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Coherence = Ptl_mem.Coherence
module Hierarchy = Ptl_mem.Hierarchy

type t = {
  env : Env.t;
  cores : Ooo_core.t array;
  directory : Coherence.t;
}

(** Build an [ncores] machine, one context per core (per thread when the
    config is SMT). [contexts] must supply ncores * smt_threads contexts. *)
let create ?(coherence = Coherence.Instant) (config : Config.t) env contexts =
  let threads_per_core = config.Config.smt_threads in
  if Array.length contexts mod threads_per_core <> 0 then
    invalid_arg "Multicore.create: contexts vs threads";
  let ncores = Array.length contexts / threads_per_core in
  let stats = env.Env.stats in
  let bbcache = Ptl_uop.Bbcache.create stats in
  let interlock = Interlock.create stats in
  let directory =
    Coherence.create stats ~mode:coherence ~ncores
      ~line_size:config.Config.hierarchy.Hierarchy.l1d.Ptl_mem.Cache.line_size
  in
  let cores =
    Array.init ncores (fun i ->
        let ctxs =
          Array.sub contexts (i * threads_per_core) threads_per_core
        in
        Ooo_core.create ~core_id:i
          ~prefix:(Printf.sprintf "core%d" i)
          ~interlock ~bbcache config env ctxs)
  in
  (* Coherence wiring: timing penalties from the directory, plus physical
     invalidation of other cores' cached copies on writes (without it the
     other core would keep hitting its stale line and no coherence traffic
     would ever be modeled). *)
  let invalidate_others me paddr =
    Array.iteri
      (fun j other ->
        if j <> me then begin
          Hierarchy.invalidate_line other.Ooo_core.hierarchy paddr;
          Coherence.note_evict directory ~core:j ~paddr
        end)
      cores
  in
  Array.iteri
    (fun i core ->
      Hierarchy.set_remote_penalty core.Ooo_core.hierarchy (fun ~paddr ~write ->
          let p = Coherence.miss_penalty directory ~core:i ~paddr ~write in
          if write then invalidate_others i paddr;
          p);
      Hierarchy.set_remote_write_hit core.Ooo_core.hierarchy (fun ~paddr ->
          let p = Coherence.write_hit_penalty directory ~core:i ~paddr in
          if p > 0 then invalidate_others i paddr;
          p))
    cores;
  { env; cores; directory }

let all_idle t = Array.for_all Ooo_core.all_idle t.cores

(** One global cycle: each core advances by one cycle in round-robin
    order, then simulated time advances. *)
let step t =
  Array.iter Ooo_core.step t.cores;
  t.env.Env.cycle <- t.env.Env.cycle + 1

(** Run until all cores idle or [max_cycles] pass; returns cycles run. *)
let run t ~max_cycles =
  let start = t.env.Env.cycle in
  let stop = ref false in
  while (not !stop) && t.env.Env.cycle - start < max_cycles do
    if all_idle t then stop := true else step t
  done;
  t.env.Env.cycle - start
