(* The repository benchmark: runs one workload in this process and prints
   its correctness gate, its metrics, and as the last line one JSON
   result.

     perfbench.exe <workload> --seed N --seconds S --trace 0|1
     perfbench.exe selftest        # statistics and output conventions
     perfbench.exe metrics         # every metric name and unit, one a line

   --trace 0 measures the end-to-end metrics; --trace 1 records a span
   around each of the benchmark's calls into a layer, reports the
   per-layer metrics, prints the traced end-to-end figures on a line
   starting "e2e-traced " and writes the spans to
   .perfbench/trace-<workload>.jsonl. *)

let workloads =
  [
    ("table1-heap", Table1_heap.run);
    ("store-lazy", Store_lazy.run);
    ("gossip-256", Gossip_256.run);
    ("rolling-128", Orchestrated.rolling_run);
    ("heal-storm", Orchestrated.heal_run);
  ]

let e2e_names =
  [
    ("pause_ms", "ms"); ("rollout_s", "s"); ("alloc_mw", "Mwords");
    ("peak_heap_mw", "Mwords"); ("setup_s", "s");
  ]

let usage () =
  prerr_endline
    ("usage: perfbench.exe <workload> --seed N --seconds S --trace 0|1\n\
     \       perfbench.exe selftest | metrics\n\
      workloads: "
    ^ String.concat ", " (List.map fst workloads));
  exit 2

(* The end-to-end host times, reported in reference-host time: scaled by
   [Hostspeed.factor]; the measured figure is printed beside them. *)
let host_times = [ "pause_ms"; "rollout_s"; "setup_s" ]

let scale factor (e : Pb.e2e) =
  { e with Pb.e_value = e.Pb.e_value *. factor; e_samples = List.map (fun x -> x *. factor) e.Pb.e_samples }

let describe (e : Pb.e2e) =
  let n = List.length e.Pb.e_samples in
  let tail =
    match Stats.tail_percentile e.Pb.e_samples with
    | Some t ->
        Printf.sprintf "; p%g %.6g with %d beyond" t.Stats.t_pct t.Stats.t_value t.Stats.t_beyond
    | None -> ""
  in
  if e.Pb.e_how <> "" then e.Pb.e_how
  else if n > 1 then Printf.sprintf "median of %d samples%s" n tail
  else "1 sample"

let run_workload name ~seed ~seconds ~trace =
  let run = try List.assoc name workloads with Not_found -> usage () in
  Pb.host_gc_settings ();
  Trace.on := trace;
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" name seed seconds
    (if trace then 1 else 0);
  let r = run ~seed ~seconds in
  let gates_ok = List.for_all snd r.Pb.r_gates in
  List.iter
    (fun (what, ok) -> Printf.printf "gate %s: %s\n" (if ok then "PASS" else "FAIL") what)
    r.Pb.r_gates;
  List.iter (fun l -> Printf.printf "note %s\n" l) r.Pb.r_notes;
  let factor = Hostspeed.factor () in
  Printf.printf "note host speed: routine median %.6f s over %d samples, reference %g s; host times x %.4f\n"
    (Hostspeed.reference_s /. factor) (List.length !Hostspeed.samples) Hostspeed.reference_s factor;
  (* each metric with its measured value, when it is scaled *)
  let shown =
    List.map
      (fun (n, _) ->
        let e = List.find (fun e -> e.Pb.e_name = n) r.Pb.r_e2e in
        if List.mem n host_times then (scale factor e, Some e.Pb.e_value) else (e, None))
      e2e_names
  in
  let e2e = List.map fst shown in
  let finite = List.for_all (fun e -> Float.is_finite e.Pb.e_value && e.Pb.e_value > 0.0) e2e in
  let correct = gates_ok && finite && r.Pb.r_attempted > 0 in
  Printf.printf "attempted %d, failed %d, failed_frac %.6g\n" r.Pb.r_attempted r.Pb.r_failed
    (Stats.failed_frac ~failed:r.Pb.r_failed ~attempted:r.Pb.r_attempted);
  List.iter
    (fun (e, measured) ->
      Printf.printf "e2e %-14s %14.6f %-7s (%s%s)\n" e.Pb.e_name e.Pb.e_value e.Pb.e_unit (describe e)
        (match measured with Some v -> Printf.sprintf "; measured %.6g" v | None -> ""))
    shown;
  let e2e_triples = List.map (fun e -> (e.Pb.e_name, e.Pb.e_unit, e.Pb.e_value)) e2e in
  let metrics =
    if not trace then e2e_triples
    else begin
      Printf.printf "e2e-traced %s\n"
        (Out.result_line ~correct ~attempted:r.Pb.r_attempted ~failed:r.Pb.r_failed e2e_triples);
      Printf.printf "%-22s %8s %12s %12s\n" "layer" "spans" "total_ms" "self_ms";
      List.iter
        (fun (layer, c, tot, self) -> Printf.printf "%-22s %8d %12.3f %12.3f\n" layer c tot self)
        (Trace.self_times ());
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      (* one file per workload: the last traced run's spans *)
      let path = Printf.sprintf "%s/trace-%s.jsonl" dir name in
      Trace.write ~path ~run_id:(Printf.sprintf "%s/%d" name seed);
      Printf.printf "spans written to %s\n" path;
      let m = Layers.metrics () in
      List.iter (fun (n, u, v) -> Printf.printf "layer %-34s %16.6f %s\n" n v u) m;
      m
    end
  in
  if correct then begin
    print_endline
      (Out.result_line ~correct ~attempted:r.Pb.r_attempted ~failed:r.Pb.r_failed metrics);
    exit 0
  end
  else begin
    print_endline
      (Out.result_line ~correct ~attempted:r.Pb.r_attempted ~failed:r.Pb.r_failed []);
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "selftest" ] -> exit (Selftest.run ())
  | [ _; "metrics" ] ->
      List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) e2e_names;
      List.iter (fun (n, u, _) -> Printf.printf "per_layer %s %s\n" n u) (Layers.metrics ())
  | _ :: name :: args ->
      let seed = ref 1 and seconds = ref 10.0 and trace = ref false in
      let rec parse = function
        | "--seed" :: n :: rest ->
            seed := int_of_string n;
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := float_of_string s;
            parse rest
        | "--trace" :: t :: rest ->
            trace := t = "1";
            parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      run_workload name ~seed:!seed ~seconds:!seconds ~trace:!trace
  | _ -> usage ()
