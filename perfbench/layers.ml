(* The per-layer metrics of a traced run, in the order BENCHMARK.json
   lists them.  Every workload reports every metric; a layer the workload
   never enters reads 0. *)

let self_layers =
  [
    "bench.setup"; "bench.measure"; "lang"; "core.spec";
    "core.transformers"; "core.admission"; "core.confree"; "core.jvolve";
    "vm.classloader"; "vm.sched"; "vm.heap"; "vm.gc"; "vm.heapverify";
    "apps.ministore"; "fleet"; "fleet.openloop"; "fleet.orchestrator";
    "fleet.supervisor"; "gossip"; "loadgen";
  ]

let v name = Option.value (Hashtbl.find_opt Pb.values name) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let calls name = float_of_int (List.length (Trace.durations name))

(* The layer a span belongs to: the longest of [self_layers] that is its
   name or a dotted prefix of it ("fleet.orchestrator.step" belongs to
   "fleet.orchestrator", "fleet.round" to "fleet"). *)
let layer_of name =
  List.fold_left
    (fun best l ->
      if (name = l || String.starts_with ~prefix:(l ^ ".") name)
         && String.length l > String.length best
      then l
      else best)
    "" self_layers

(* (name, unit, value) *)
let metrics () =
  let applied = v "updates.applied" in
  let per_update name = ratio (v name) applied in
  let objs = v "core.update.transformed_objects" in
  let self = Trace.self_times () in
  [
    ("lang.compile_ms", "ms", Pb.mean_call_ms "lang");
    ("core.spec_ms", "ms", Pb.mean_call_ms "core.spec");
    ("core.prepare_ms", "ms", Pb.mean_call_ms "core.transformers");
    ("core.admission_ms", "ms", Pb.mean_call_ms "core.admission");
    ("core.admission.calls", "count", calls "core.admission");
    ("core.confree_ms", "ms", Pb.mean_call_ms "core.confree");
    ("core.confree.calls", "count", calls "core.confree");
    ("core.update.load_ms", "ms", per_update "core.update.load_ms");
    ("core.update.gc_ms", "ms", per_update "core.update.gc_ms");
    ("core.update.transform_ms", "ms", per_update "core.update.transform_ms");
    ("core.update.verify_ms", "ms", per_update "core.update.verify_ms");
    ("core.update.transformed_objects", "count", objs);
    ("core.update.applied", "count", applied);
    ("core.transform.ns_per_object", "ns", ratio (v "core.update.transform_ms" *. 1e6) objs);
    ("core.transform.words_per_object", "words", ratio (v "commit.words") (v "commit.objects"));
    ("core.safepoint.wait_rounds", "rounds", per_update "core.safepoint.wait_rounds");
    ("core.update.attempts", "count", v "core.update.attempts");
    ("core.lazy.barrier_hits", "count", v "core.lazy.barrier_hits");
    ("core.lazy.swept", "count", v "core.lazy.swept");
    ("core.lazy.window_rounds", "rounds", ratio (v "core.lazy.window_rounds") (v "core.lazy.windows"));
    ("core.lazy.window_close_ms", "ms", v "core.lazy.window_close_ms");
    ("vm.round_us_p50", "us", v "vm.round_us_p50");
    ("vm.round_us_p99", "us", v "vm.round_us_p99");
    ("vm.ns_per_instr", "ns", v "vm.ns_per_instr");
    ("vm.instructions", "count", v "vm.instructions");
    ( "vm.gc.ns_per_word",
      "ns",
      ratio (List.fold_left ( +. ) 0.0 (Trace.durations "vm.gc") *. 1e6) (v "vm.gc.words") );
    ("vm.gc.collections", "count", v "vm.gc.collections");
    ("vm.jit.compiles", "count", v "vm.jit.compiles");
    ("simnet.bytes", "bytes", v "simnet.bytes");
    ("fleet.round_ms", "ms", Pb.mean_call_ms "fleet.round");
    ("fleet.orchestrator.step_ms", "ms", Pb.mean_call_ms "fleet.orchestrator.step");
    ("fleet.supervisor.step_ms", "ms", Pb.mean_call_ms "fleet.supervisor.step");
    ("gossip.step_ms", "ms", Pb.mean_call_ms "gossip.step");
    ("gossip.votes_seen", "count", v "gossip.votes_seen");
    ("gossip.rumor_bytes", "bytes", v "gossip.rumor_bytes");
    ("gossip.pushes", "count", v "gossip.pushes");
    ("loadgen.late_ms_p99", "ms", v "loadgen.late_ms_p99");
    ("loadgen.req_p50_ms", "ms", v "loadgen.req_p50_ms");
    ("loadgen.req_p99_ms", "ms", v "loadgen.req_p99_ms");
    ("trace.spans", "count", float_of_int (Trace.count ()));
  ]
  @ List.map
      (fun layer ->
        let s =
          List.fold_left
            (fun acc (name, _, _, self) -> if layer_of name = layer then acc +. self else acc)
            0.0 self
        in
        ("self_ms." ^ layer, "ms", s))
      self_layers
