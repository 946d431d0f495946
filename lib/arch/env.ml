(** The shared simulation environment: guest physical memory, the global
    cycle counter, time virtualization state, and the hooks through which
    the guest reaches the outside world (kernel-model services, the
    hypervisor's ptlcall handler, idle/pause notifications).

    Hooks default to no-ops so the architecture layer is testable on its
    own; the kernel and hypervisor layers install their handlers at boot. *)

type t = {
  mem : Ptl_mem.Phys_mem.t;
  stats : Ptl_stats.Statstree.t;
  vmem : Vmem.env;
  (* Current simulated cycle, advanced by whichever core model is running
     (or by the native-rate clock in native mode). *)
  mutable cycle : int;
  (* Virtualized timestamp counter offset: rdtsc returns cycle+offset so
     native<->simulation transitions are seamless (paper §4.1). *)
  mutable tsc_offset : int64;
  mutable kcall : Context.t -> unit;
  mutable ptlcall : Context.t -> unit;
  mutable on_hlt : Context.t -> unit;
  mutable on_pause : Context.t -> unit;
  mutable rdpmc : int -> int64;
}

let create ?stats ?mem () =
  let stats = match stats with Some s -> s | None -> Ptl_stats.Statstree.create () in
  let mem = match mem with Some m -> m | None -> Ptl_mem.Phys_mem.create () in
  {
    mem;
    stats;
    vmem = Vmem.create mem;
    cycle = 0;
    tsc_offset = 0L;
    kcall = (fun _ -> ());
    ptlcall = (fun _ -> ());
    on_hlt = (fun _ -> ());
    on_pause = (fun _ -> ());
    rdpmc = (fun _ -> 0L);
  }

(** The virtualized TSC value. *)
let tsc t = Int64.add (Int64.of_int t.cycle) t.tsc_offset
