(* table1-heap: the paper's §4.1 pause microbenchmark at one heap size.

   A heap of [Change] and [NoChange] objects behind an idle [Main]; a run
   of eager updates that add and then drop [Change.d] with the
   UPT-generated default transformers.  The pause is the transforming
   collection plus the interpreted default transformers: no traffic,
   simnet, fleet or gossip.  The seed draws the objects' field values and
   the order the two classes are allocated in. *)

module VM = Jv_vm
module J = Jvolve_core

let objects = 200_000
let min_updates = 8
let setups = 9

let v1_src =
  {|
class Holder { int x; }
class Change {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class NoChange {
  int a; int b; int c;
  Holder r1; Holder r2; Holder r3;
}
class Root {
  static Change[] cs;
  static NoChange[] ns;
}
class Main {
  static void main() {
    while (true) { Thread.sleep(10); }
  }
}
|}

let v2_src =
  Jv_apps.Patching.patch v1_src
    [
      ( "class Change {\n  int a; int b; int c;",
        "class Change {\n  int a; int b; int c; int d;" );
    ]

let slot_of vm cls name =
  match VM.Rt.find_static_info vm.VM.State.reg cls name with
  | Some si -> si.VM.Rt.si_slot
  | None -> failwith ("no static Root." ^ name)

let field_off vm cname fname =
  let cls = VM.Rt.require_class vm.VM.State.reg cname in
  match VM.Rt.find_field_info cls fname with
  | Some fi -> Some fi.VM.Rt.fi_offset
  | None -> None

(* Seeded field values: (a, b, c) per object, [Change] objects first in
   the generated order, interleaved with [NoChange] by the seed. *)
type heap_plan = { is_change : bool array; abc : int array (* 3 per object *) }

let plan ~seed =
  let r = Pb.rng ~seed ~stream:"table1.values" in
  let n_change = objects / 2 in
  let is_change = Array.init objects (fun i -> i < n_change) in
  (* Fisher-Yates: the seed decides the allocation interleaving *)
  for i = objects - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = is_change.(i) in
    is_change.(i) <- is_change.(j);
    is_change.(j) <- t
  done;
  let abc = Array.init (3 * objects) (fun _ -> Random.State.bits r) in
  { is_change; abc }

(* Allocate every object straight into the heap (how they got there is
   immaterial to the pause), each reachable from Root.cs / Root.ns. *)
let populate vm (p : heap_plan) =
  let reg = vm.VM.State.reg in
  let heap = vm.VM.State.heap in
  let change = VM.Rt.require_class reg "Change" in
  let nochange = VM.Rt.require_class reg "NoChange" in
  let root = VM.Rt.require_class reg "Root" in
  let n_change = Array.fold_left (fun n c -> if c then n + 1 else n) 0 p.is_change in
  let cs_slot = slot_of vm root "cs" and ns_slot = slot_of vm root "ns" in
  VM.State.jtoc_set vm cs_slot (VM.Value.of_ref (VM.State.alloc_array vm ~len:n_change));
  VM.State.jtoc_set vm ns_slot
    (VM.Value.of_ref (VM.State.alloc_array vm ~len:(objects - n_change)));
  let ci = ref 0 and ni = ref 0 in
  Array.iteri
    (fun i is_c ->
      let o = VM.State.alloc_object vm (if is_c then change else nochange) in
      for f = 0 to 2 do
        VM.Heap.set heap ~addr:o ~off:(2 + f) (VM.Value.of_int p.abc.((3 * i) + f))
      done;
      let slot, idx = if is_c then (cs_slot, ci) else (ns_slot, ni) in
      let arr = VM.Value.to_ref (VM.State.jtoc_get vm slot) in
      VM.Heap.set heap ~addr:arr
        ~off:(VM.Heap.array_header_words + !idx)
        (VM.Value.of_ref o);
      incr idx)
    p.is_change;
  n_change

type env = {
  vm : VM.Vm.t;
  v1 : Jv_classfile.Cls.t list;
  v2 : Jv_classfile.Cls.t list;
  n_change : int;
}

let setup (p : heap_plan) =
  let v1 = Pb.compile v1_src in
  let v2 = Pb.compile v2_src in
  (* ~8 words per object + arrays + room for the update's old copies *)
  let config = { VM.State.default_config with VM.State.heap_words = objects * 20 } in
  let vm = VM.Vm.create ~config () in
  Trace.span "vm.classloader" (fun () -> VM.Vm.boot vm v1);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  Trace.span "vm.sched" (fun () -> VM.Vm.run vm ~rounds:2);
  let n_change = Trace.span "vm.heap" (fun () -> populate vm p) in
  (* warm both semi-spaces: a throwaway collection touches every page *)
  ignore (Pb.vm_gc vm);
  { vm; v1; v2; n_change }

(* Every Change keeps a/b/c; d (when present) is 0; NoChange untouched. *)
let check_fields env (p : heap_plan) =
  let vm = env.vm in
  let heap = vm.VM.State.heap in
  let root = VM.Rt.require_class vm.VM.State.reg "Root" in
  let offs cname = List.map (fun f -> Option.get (field_off vm cname f)) [ "a"; "b"; "c" ] in
  let d_off = field_off vm "Change" "d" in
  let arrays =
    [ (true, slot_of vm root "cs", offs "Change"); (false, slot_of vm root "ns", offs "NoChange") ]
  in
  List.for_all
    (fun (want_change, slot, offs) ->
      let arr = VM.Value.to_ref (VM.State.jtoc_get vm slot) in
      let idx = ref 0 in
      let ok = ref true in
      Array.iteri
        (fun i is_c ->
          if is_c = want_change then begin
            let o =
              VM.Value.to_ref
                (VM.Heap.get heap ~addr:arr ~off:(VM.Heap.array_header_words + !idx))
            in
            incr idx;
            List.iteri
              (fun f off ->
                if VM.Value.to_int (VM.Heap.get heap ~addr:o ~off) <> p.abc.((3 * i) + f)
                then ok := false)
              offs;
            match d_off with
            | Some off when is_c ->
                if VM.Value.to_int (VM.Heap.get heap ~addr:o ~off) <> 0 then ok := false
            | _ -> ()
          end)
        p.is_change;
      !ok)
    arrays

let run ~seed ~seconds : Pb.result =
  let p = plan ~seed in
  let env, setup_s = Pb.repeat_setup setups (fun () -> setup p) in
  let vm = env.vm in
  let pauses = ref [] and rollouts = ref [] and round_us = ref [] in
  let failed = ref 0 and attempted = ref 0 and exact = ref true in
  let allocs = ref [] in
  let stats0 = VM.Vm.stats vm in
  let t_start = Pb.now () in
  Pb.excluded_s := 0.0;
  let i = ref 0 in
  Trace.span "bench.measure" (fun () ->
      while !i < min_updates || Pb.now () -. t_start -. !Pb.excluded_s < seconds do
        let adding = !i mod 2 = 0 in
        let old_program, new_program = if adding then (env.v1, env.v2) else (env.v2, env.v1) in
        let prepared =
          Pb.prepare_update ~version_tag:(string_of_int (!i + 1)) ~old_program ~new_program ()
        in
        Pb.settle_host_gc ();
        let a0 = Pb.alloc_words () in
        let t_req = Pb.now () in
        let h = Trace.span "core.jvolve" (fun () -> J.Jvolve.request vm prepared) in
        incr attempted;
        let rounds = ref 0 in
        while (not (J.Jvolve.resolved h)) && !rounds < 50 do
          let ra = Pb.alloc_words () in
          let t0 = Pb.now () in
          Trace.span "vm.sched" (fun () -> VM.Vm.run vm ~rounds:1);
          let t1 = Pb.now () in
          incr rounds;
          round_us := ((t1 -. t0) *. 1e6) :: !round_us;
          if J.Jvolve.resolved h then begin
            pauses := ((t1 -. t0) *. 1e3) :: !pauses;
            rollouts := (t1 -. t_req) :: !rollouts;
            Pb.add "commit.words" (Pb.alloc_words () -. ra)
          end
        done;
        allocs := ((Pb.alloc_words () -. a0) /. 1e6) :: !allocs;
        (match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t ->
            if t.J.Updater.u_transformed_objects <> env.n_change then exact := false;
            Pb.addi "commit.objects" t.J.Updater.u_transformed_objects;
            Updates.note_applied vm h t
        | _ -> incr failed);
        incr i
      done);
  let measured_s = Pb.now () -. t_start -. !Pb.excluded_s in
  let stats1 = VM.Vm.stats vm in
  (* gate: one final collection, then the fields and the verifier *)
  let fields_ok, verify_ok =
    Trace.span "bench.gate" (fun () ->
        ignore (Pb.vm_gc vm);
        let f = check_fields env p in
        (f, (Pb.heapverify vm).VM.Heapverify.hv_ok))
  in
  Pb.set "vm.round_us_p50" (Stats.median !round_us);
  Pb.set "vm.round_us_p99"
    (Option.value (Stats.percentile_if_supported !round_us 99.0) ~default:0.0);
  Updates.vm_layer_values ~stats0 ~stats1 ~round_s:(List.fold_left ( +. ) 0.0 !round_us /. 1e6);
  {
    Pb.r_gates =
      [
        ("every update applied", !failed = 0);
        (Printf.sprintf "transformed count exact (%d per update)" env.n_change, !exact);
        ("fields a/b/c preserved, d = 0", fields_ok);
        ("heap verifier green after a final collection", verify_ok);
      ];
    r_attempted = !attempted;
    r_failed = !failed;
    r_e2e =
      [
        Pb.median_metric "pause_ms" "ms" !pauses;
        Pb.median_metric "rollout_s" "s" !rollouts;
        Pb.setup_metric setup_s;
        Pb.median_metric "alloc_mw" "Mwords" !allocs;
        Pb.peak_heap_metric ();
      ];
    r_notes =
      [
        Printf.sprintf "%d objects (%d Change), %d updates in %.1f s measured" objects
          env.n_change !attempted measured_s;
        Printf.sprintf "pauses: %s ms" (String.concat ", " (List.rev_map (Printf.sprintf "%.1f") !pauses));
      ];
  }
