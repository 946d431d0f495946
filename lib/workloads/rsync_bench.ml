(** Assembly of the paper's §5 experiment: the rsync-over-ssh full-system
    benchmark, ready to launch under the monitor, plus the Table 1 metric
    extraction.

    Two machine configurations reproduce the paper's comparison:
    - ["k8-silicon"] ({!Ptl_ooo.Config.k8_silicon}): the reference Athlon 64
      — two-level DTLB + PDE cache, hardware prefetcher, the real chip's
      slightly weaker direction predictor, and uop-triad retirement
      counting;
    - ["k8-ptlsim"] ({!Ptl_ooo.Config.k8_ptlsim}): the paper's PTLsim model
      of the same machine.

    Running the identical workload under both and diffing the counters
    reproduces each row of Table 1 (see EXPERIMENTS.md for the mapping and
    the expected sign/magnitude of every delta). *)

module Stats = Ptl_stats.Statstree
module Config = Ptl_ooo.Config
module Kernel = Ptl_kernel.Kernel
module Ptlmon = Ptl_hyper.Ptlmon
module Domain = Ptl_hyper.Domain

let spec ?(fileset = Fileset.default) ?(machine = Config.k8_ptlsim)
    ?(snapshot_interval = Some 2_200_000) () =
  {
    Ptlmon.programs = Rsync_progs.programs ();
    files = Fileset.generate fileset;
    kernel_config = Kernel.default_config;
    machine_config = machine;
    core = "ooo";
    snapshot_interval;
  }

(** The Table 1 metrics extracted from a finished run's statistics tree.
    All counts are raw (the table formatter scales to thousands). *)
type metrics = {
  m_cycles : int;
  m_insns : int;
  m_uops : int;
  m_l1d_misses : int;
  m_l1d_accesses : int;
  m_branches : int;
  m_mispredicts : int;
  m_dtlb_misses : int;
  m_dtlb_accesses : int;
}

let metrics_of_stats ?(prefix = "ooo") stats ~triads =
  let g path = Stats.get stats path in
  let p suffix = prefix ^ "." ^ suffix in
  {
    m_cycles = g (p "cycles") + g "domain.cycles_in_mode.idle";
    m_insns = g (p "commit.insns");
    m_uops = (if triads then g (p "commit.triads") else g (p "commit.uops"));
    m_l1d_misses = g (p "mem.L1D.misses");
    m_l1d_accesses = g (p "mem.L1D.misses") + g (p "mem.L1D.hits");
    m_branches = g (p "commit.branches");
    m_mispredicts = g (p "commit.mispredicts");
    m_dtlb_misses = g (p "dcache.dtlb_misses");
    m_dtlb_accesses = g (p "dcache.dtlb_accesses");
  }

(** Verify the synchronization outcome: every dst file must now equal its
    src counterpart (functional correctness of the whole pipeline). *)
let verify_sync (k : Kernel.t) =
  let fs = k.Kernel.fs in
  let srcs = Ptl_kernel.Ramfs.list_dir fs ~prefix:"src/" in
  List.for_all
    (fun sname ->
      let tail = String.sub sname 4 (String.length sname - 4) in
      match (Ptl_kernel.Ramfs.find fs sname, Ptl_kernel.Ramfs.find fs ("dst/" ^ tail)) with
      | Some s, Some d ->
        s.Ptl_kernel.Ramfs.size = d.Ptl_kernel.Ramfs.size
        && Bytes.equal
             (Bytes.sub s.Ptl_kernel.Ramfs.data 0 s.Ptl_kernel.Ramfs.size)
             (Bytes.sub d.Ptl_kernel.Ramfs.data 0 d.Ptl_kernel.Ramfs.size)
      | _ -> false)
    srcs
