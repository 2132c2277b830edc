(* Shared helpers for the test suites. *)

module CF = Jv_classfile
module VM = Jv_vm

(* small heap for unit tests: keeps VM creation cheap *)
let test_config =
  { VM.State.default_config with VM.State.heap_words = 1 lsl 18 }

(* Compile MiniJava source, boot a VM on it, run the main class to
   quiescence, and return the VM. *)
let run_source ?(config = test_config) ?(main = "Main") ?(rounds = 100_000)
    src =
  let classes = Jv_lang.Compile.compile_program src in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm classes;
  ignore (VM.Vm.spawn_main vm ~main_class:main);
  ignore (VM.Vm.run_to_quiescence ~max_rounds:rounds vm);
  vm

(* Run and return program output. *)
let output_of ?config ?main ?rounds src =
  VM.Vm.output (run_source ?config ?main ?rounds src)

let check_output ?config ?main ?rounds ~expected src =
  Alcotest.(check string) "program output" expected
    (output_of ?config ?main ?rounds src)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Expect a compile failure whose message contains [substr]. *)
let check_compile_error ~substr src =
  match Jv_lang.Compile.compile_program src with
  | exception Jv_lang.Compile.Error msg ->
      if not (contains msg substr) then
        Alcotest.failf "error %S does not mention %S" msg substr
  | _ -> Alcotest.failf "expected compile error mentioning %S" substr

(* The same spec with its generated transformer source handed back as a
   hand-written one: every object transformer then runs in the
   interpreter instead of as a copy plan. *)
let interpreted_spec (spec : Jvolve_core.Spec.t) =
  {
    spec with
    Jvolve_core.Spec.transformer_src =
      Some (Jvolve_core.Transformers.generate_source spec);
  }

(* Two VMs' heaps must agree word for word up to the allocation
   frontier. *)
let check_same_heap what (a : VM.State.t) (b : VM.State.t) =
  let ha = a.VM.State.heap and hb = b.VM.State.heap in
  Alcotest.(check int) (what ^ ": heap frontier") ha.VM.Heap.free
    hb.VM.Heap.free;
  for i = 0 to ha.VM.Heap.free - 1 do
    if ha.VM.Heap.space.(i) <> hb.VM.Heap.space.(i) then
      Alcotest.failf "%s: heaps differ at word %d (%d vs %d)" what i
        ha.VM.Heap.space.(i) hb.VM.Heap.space.(i)
  done

(* Instructions the interpreter ran in [vm]'s eager transform phases;
   objects transformed by a copy plan add none. *)
let transformer_steps (vm : VM.State.t) =
  match
    Jv_obs.Obs.find_histogram vm.VM.State.obs "core.update.transformer_steps"
  with
  | Some h -> Jv_obs.Metrics.sum h
  | None -> 0.0
