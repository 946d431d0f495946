(* Native-mode co-simulation demo (paper §2.3): a guest program switches
   itself between native mode and the cycle-accurate core with ptlcall
   command lists, and the out-of-order core is validated instruction-by-
   instruction against the functional reference.

     dune exec examples/cosim_demo.exe *)

open Ptlsim

let pointer_chase_image () =
  let g = Gasm.create ~base:0x40_0000L () in
  Gasm.li g Gasm.rbp Machine.heap_base;
  Gasm.lii g Gasm.rcx 5_000;
  Gasm.lii g Gasm.rbx 7;
  Gasm.label g "top";
  Gasm.imuli g Gasm.rbx 1103515245;
  Gasm.addi g Gasm.rbx 12345;
  Gasm.mov g Gasm.rax Gasm.rbx;
  Gasm.andi g Gasm.rax 0xFF8;
  Gasm.mov g Gasm.rdx Gasm.rbp;
  Gasm.add g Gasm.rdx Gasm.rax;
  Gasm.ld g Gasm.rax ~base:Gasm.rdx ();
  Gasm.addi g Gasm.rax 1;
  Gasm.st g ~base:Gasm.rdx Gasm.rax ();
  Gasm.dec g Gasm.rcx;
  Gasm.jne g "top";
  Gasm.ins g Insn.Hlt;
  Gasm.assemble g

let () =
  let image = pointer_chase_image () in

  (* 1. lockstep validation: does the cycle-accurate core compute exactly
        what the functional reference computes? *)
  print_endline "validating the out-of-order core against the functional reference...";
  (match Cosim.validate ~config:Config.k8_ptlsim ~check_every:1000 ~max_insns:30_000 image with
  | Cosim.Agree n -> Printf.printf "AGREE across %d instructions.\n" n
  | Cosim.Diverged { after_insns; diffs; _ } ->
    Printf.printf "diverged after %d instructions:\n  %s\n" after_insns
      (String.concat "\n  " diffs);
    (* per-instruction checks up to there name the first divergent one *)
    match Cosim.validate ~config:Config.k8_ptlsim ~check_every:1 ~max_insns:after_insns image with
    | Cosim.Diverged { after_insns; _ } -> Printf.printf "first divergent instruction: #%d\n" after_insns
    | Cosim.Agree _ -> ());

  (* 2. checkpoint + deterministic replay (the §4.2 methodology) *)
  let m = Machine.create image in
  let ck = Checkpoint.capture m.Machine.env m.Machine.ctx in
  ignore (Machine.run_seq m);
  let first_result = Machine.gpr m Gasm.rbx in
  Checkpoint.restore ck m.Machine.env m.Machine.ctx;
  ignore (Machine.run_seq m);
  Printf.printf "checkpoint replay deterministic: %b\n"
    (Machine.gpr m Gasm.rbx = first_result);

  (* 3. trigger-driven mode switching inside a full-system domain *)
  let g = Gasm.create () in
  Gasm.jmp g "main";
  Gasm.label g "main";
  Gasm.ptlctl g "-core ooo -run -stopinsns 5k : -native";
  Gasm.lii g Gasm.rcx 50_000;
  Gasm.label g "spin";
  Gasm.addi g Gasm.rax 3;
  Gasm.dec g Gasm.rcx;
  Gasm.jne g "spin";
  Gasm.sys_marker g 999;
  Gasm.sys_exit g 0;
  let env = Env.create () in
  let ctx = Context.create ~vcpu_id:0 in
  let k = Kernel.create env ctx in
  Kernel.register_program k ~name:"init" (Gasm.assemble g);
  Kernel.boot k;
  let d = Domain.create ~kernel:k ~config:Config.k8_ptlsim env ctx in
  ignore (Domain.run ~max_cycles:500_000_000 d);
  let st = env.Env.stats in
  Printf.printf
    "mode switching: %d switches; %d instructions simulated cycle-accurately,\n\
     %d executed in native mode (same virtual clock throughout).\n"
    (Statstree.get st "domain.mode_switches")
    (Statstree.get st "ooo.commit.insns")
    (Statstree.get st "domain.native_insns")
