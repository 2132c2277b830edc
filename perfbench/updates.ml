(* Per-layer readings shared by the single-VM workloads: the updater's
   own split of each applied update, the safe-point accounting from
   [Jvolve.report], and the VM's instruction / JIT / GC counters. *)

module VM = Jv_vm
module J = Jvolve_core

let note_applied vm (h : J.Jvolve.handle) (t : J.Updater.timings) =
  Pb.addi "updates.applied" 1;
  Pb.add "core.update.load_ms" t.J.Updater.u_load_ms;
  Pb.add "core.update.gc_ms" t.J.Updater.u_gc_ms;
  Pb.add "core.update.transform_ms" t.J.Updater.u_transform_ms;
  Pb.add "core.update.verify_ms" t.J.Updater.u_verify_ms;
  Pb.addi "core.update.transformed_objects" t.J.Updater.u_transformed_objects;
  let r = J.Jvolve.report vm h in
  Pb.addi "core.update.attempts" r.J.Jvolve.ar_attempts;
  Pb.addi "core.safepoint.wait_rounds" r.J.Jvolve.ar_waited_rounds

(* Deltas of the VM counters over the measured phase; [round_s] is the
   host time spent inside the benchmark's timed scheduler rounds. *)
let vm_layer_values ~(stats0 : VM.Vm.stats) ~(stats1 : VM.Vm.stats) ~round_s =
  let instr = stats1.VM.Vm.instr_count - stats0.VM.Vm.instr_count in
  Pb.addi "vm.instructions" instr;
  if instr > 0 then Pb.set "vm.ns_per_instr" (round_s *. 1e9 /. float_of_int instr);
  Pb.addi "vm.jit.compiles"
    (stats1.VM.Vm.compile_count + stats1.VM.Vm.opt_compile_count
    - stats0.VM.Vm.compile_count - stats0.VM.Vm.opt_compile_count);
  Pb.addi "vm.gc.collections" (stats1.VM.Vm.gc_count - stats0.VM.Vm.gc_count)
