(* Plumbing shared by the workloads: the host clock, host-GC settings and
   normalisation, host allocation, seeded inputs, per-layer accumulators
   and the result every workload returns. *)

let now = Unix.gettimeofday

(* --- host GC ------------------------------------------------------------ *)

(* The settings bench/main.ml runs under: a large minor heap and relaxed
   major-collection pacing keep the host GC out of most measured rounds. *)
let host_gc_settings () =
  Stdlib.Gc.set
    {
      (Stdlib.Gc.get ()) with
      Stdlib.Gc.minor_heap_size = 1 lsl 22;
      space_overhead = 300;
    }

(* Host time spent normalising the host GC; the open-loop clock of
   store-lazy excludes it, so the normalisation is outside every timed
   region. *)
let excluded_s = ref 0.0

(* Before every set-up and timed update: bring the host GC to the same
   state, minor heap empty and no major cycle in progress, and sample the
   host's speed on it (at most once a second, see [Hostspeed]), settling
   again after.  Not [Gc.compact]: returning the freed heap to the OS
   makes the next update page it back in, which spreads the pauses. *)
let settle_host_gc () =
  let t0 = now () in
  Stdlib.Gc.full_major ();
  if Hostspeed.sample () then Stdlib.Gc.full_major ();
  excluded_s := !excluded_s +. (now () -. t0)

(* Host words allocated so far: minor + major - promoted. *)
let alloc_words () =
  let minor, promoted, major = Stdlib.Gc.counters () in
  minor +. major -. promoted

let peak_heap_words () = float_of_int (Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words

(* --- seeded inputs ------------------------------------------------------- *)

(* Every generated input derives from the workload seed through its own
   stream, so adding a stream never shifts another. *)
let rng ~seed ~stream = Random.State.make [| seed; Hashtbl.hash stream |]

(* A seed for a library-owned generator (fault plans), drawn from the
   stream: distinct run seeds give unrelated plans. *)
let sub_seed ~seed ~stream = Random.State.bits (rng ~seed ~stream)

(* --- per-layer accumulators --------------------------------------------- *)

(* Filled only by traced runs: the layer counters and gauges read back
   from the program.  Host times of the benchmark's calls into a layer
   are the durations of its [Trace] spans. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 64

let mean_call_ms name = Stats.mean (Trace.durations name)
let set name v = if !Trace.on then Hashtbl.replace values name v

let add name v =
  if !Trace.on then
    Hashtbl.replace values name
      (v +. Option.value (Hashtbl.find_opt values name) ~default:0.0)

let addi name v = add name (float_of_int v)

(* The benchmark's compile of one program version: the [lang] layer. *)
let compile src = Trace.span "lang" (fun () -> Jv_lang.Compile.compile_program src)

(* A plain collection, its span timed for [vm.gc] time per copied word. *)
let vm_gc vm =
  let r = Trace.span "vm.gc" (fun () -> Jv_vm.Vm.gc vm) in
  addi "vm.gc.words" r.Jv_vm.Gc.copied_words;
  r

let heapverify vm = Trace.span "vm.heapverify" (fun () -> Jv_vm.Heapverify.run vm)

(* The UPT side of every update the workload makes, timed layer by layer
   on the workload's own specs: [Spec.make] (and [Spec.inverse] for a
   step back down a ladder), [Transformers.prepare], and the admission
   and con-freeness reviews that [Jvolve.request] repeats inside the
   VM. *)
let prepare_update ?(overrides = Jv_apps.Common.no_overrides) ?(inverse = false)
    ~version_tag ~old_program ~new_program () =
  let spec =
    Trace.span "core.spec" (fun () ->
        let s = Jv_apps.Common.spec ~overrides ~version_tag ~old_program ~new_program () in
        if inverse then Jvolve_core.Spec.inverse s else s)
  in
  let prepared =
    Trace.span "core.transformers" (fun () -> Jvolve_core.Transformers.prepare spec)
  in
  if !Trace.on then begin
    ignore
      (Trace.span "core.admission" (fun () ->
           Jvolve_core.Admission.review prepared));
    ignore (Trace.span "core.confree" (fun () -> Jvolve_core.Confree.analyze spec))
  end;
  prepared

(* --- results ------------------------------------------------------------ *)

type e2e = {
  e_name : string;
  e_unit : string;
  e_value : float;
  e_samples : float list; (* the samples [e_value] summarises *)
  e_how : string; (* how, when not "median of the samples" *)
}

type result = {
  r_gates : (string * bool) list; (* the workload's correctness gate *)
  r_attempted : int;
  r_failed : int;
  r_e2e : e2e list;
  r_notes : string list; (* human-readable context lines *)
}

(* One gate over repeated rollouts: check k passes when it passed in every
   rollout; its label is the first failing rollout's, else the first's. *)
let merge_gates per_rollout =
  let n = List.length per_rollout in
  List.mapi
    (fun k _ ->
      let kth = List.map (fun gates -> List.nth gates k) per_rollout in
      let label, ok =
        match List.find_opt (fun (_, ok) -> not ok) kth with
        | Some g -> g
        | None -> List.hd kth
      in
      (Printf.sprintf "%s [%d rollouts]" label n, ok))
    (List.hd per_rollout)

let median_metric name unit samples =
  { e_name = name; e_unit = unit; e_value = Stats.median samples; e_samples = samples; e_how = "" }

let scalar_metric name unit v =
  { e_name = name; e_unit = unit; e_value = v; e_samples = [ v ]; e_how = "" }

(* [setup_s]: compile, boot, populate and warm up, measured on every
   repetition of the set-up in the run. *)
let setup_metric samples = median_metric "setup_s" "s" samples

(* A timed set-up, after the host GC is settled; returns its result and
   its host time (s). *)
let timed_setup f =
  settle_host_gc ();
  let t0 = now () in
  let env = Trace.span "bench.setup" f in
  (env, now () -. t0)

(* Set up [n] times, keeping the last; returns it and the [setup_s]
   samples.  Each earlier environment is dropped before the next set-up. *)
let repeat_setup n f =
  let rec go k samples =
    let env, s = timed_setup f in
    if k <= 1 then (env, s :: samples) else go (k - 1) (s :: samples)
  in
  go n []

let peak_heap_metric () = scalar_metric "peak_heap_mw" "Mwords" (peak_heap_words () /. 1e6)
