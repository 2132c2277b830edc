(* Command-line pieces shared by jvolve_run and jvolve_fleet: the option
   terms both binaries take, turning them into a fault plan and a guard
   config, and the trace/metrics epilogue. *)

module J = Jvolve_core
open Cmdliner

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* --- terms -------------------------------------------------------------- *)

let admit_strict =
  Arg.(value & flag & info [ "admit-strict" ]
         ~doc:"Promote admission-control warnings (e.g. a field silently \
               changing type across the update) to rejections.")

let verify_heap =
  Arg.(value & flag & info [ "verify-heap" ]
         ~doc:"Walk the whole heap after each update's transform phase \
               (and after any rollback) checking headers, reference-field \
               types and statics; a failed verify aborts the update, and \
               a failed post-rollback verify takes a fleet instance out \
               of service.")

let transformer_fuel =
  Arg.(value & opt int Jv_vm.State.default_config.Jv_vm.State.transformer_fuel
         & info [ "transformer-fuel" ] ~docv:"N"
             ~doc:"Machine-instruction budget per transformer invocation; \
                   a transformer that exceeds it traps and the update \
                   aborts.")

let confree =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "confree" ]
              ~doc:
                "Run the static con-freeness (backward-compatibility) \
                 analysis at admission time: changed methods whose old \
                 bodies are proven safe to keep running across the commit \
                 stop blocking the safe point, so always-on-stack run() \
                 loops no longer block it.  This is the default." );
          ( false,
            info [ "no-confree" ]
              ~doc:
                "Disable the con-freeness analysis: every changed method \
                 blocks the safe point wherever it is on stack (the \
                 paper's baseline behaviour)." );
        ])

let guard_rounds =
  Arg.(value & opt int J.Guard.default_budget.J.Guard.b_rounds
         & info [ "guard-rounds" ] ~docv:"N"
             ~doc:"Length of the post-commit guard window in scheduler \
                   rounds: after a successful update the VM watches trap \
                   rate, app errors, probe failures and p99 latency \
                   against pre-update baselines and auto-reverts in-VM \
                   (inverse update, replaying the retained update log) if \
                   the budget trips.  In a fleet a trip also fences the \
                   rollout.")

let guard_budget =
  Arg.(value & opt string "" & info [ "guard-budget" ] ~docv:"SPEC"
         ~doc:"Guard error budget, comma-separated key=value pairs: \
               rounds, traps, errors, probes, latency (factor), samples. \
               E.g. 'traps=0,errors=2,latency=3'.  Unset keys keep their \
               defaults.")

let no_guard =
  Arg.(value & flag & info [ "no-guard" ]
         ~doc:"Commit updates immediately: no guard window, no retained \
               update log, no automatic or fleet-wide fenced revert.")

let faults =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN"
         ~doc:"Arm a deterministic fault plan on every VM (and, in a \
               fleet, its network): comma-separated \
               POINT=ACTION[@RATE][xCOUNT] rules, e.g. \
               'updater.transform=raise', 'updater.*=raise@0.2', \
               'net.link=delay:3@0.1x5', 'updater.gc=kill x1'.  \
               Actions: raise, kill, drop, delay:N.  A trailing * in \
               POINT matches by prefix.")

let fault_seed =
  Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for the fault plan's RNG (same seed, same schedule).")

let trace =
  Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Print the flight-recorder timeline after the run; with \
                   $(docv), write the full JSON-lines event dump there \
                   instead.")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print a Prometheus-style snapshot of the metrics (in a \
               fleet: the fleet's merged with every instance VM's).")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Print VM statistics, rollout phases and per-instance \
               attempt reports.")

(* --- turning terms into values ------------------------------------------ *)

let fault_plan ~faults ~fault_seed =
  Option.map
    (fun p ->
      match Jv_faults.Faults.parse ~seed:fault_seed p with
      | Ok plan -> plan
      | Error e ->
          Printf.eprintf "bad fault plan: %s\n" e;
          exit 1)
    faults

let guard_config ~no_guard ~guard_rounds ~guard_budget =
  if no_guard then None
  else
    match J.Guard.budget_of_string guard_budget with
    | Error e ->
        Printf.eprintf "bad --guard-budget: %s\n" e;
        exit 1
    | Ok b ->
        Some
          (J.Guard.config ~budget:{ b with J.Guard.b_rounds = guard_rounds } ())

(* --- the epilogue ------------------------------------------------------- *)

(* --trace prints the timeline of [scopes] through [timeline];
   --trace=FILE dumps every event of [obs] as JSON lines.  --metrics
   prints one snapshot merging [obs] with [sinks]. *)
let epilogue ?(sinks = []) ~trace ~metrics ~scopes ~timeline obs =
  (match trace with
  | None -> ()
  | Some "" -> timeline (Jv_obs.Export.timeline ~scopes obs)
  | Some file -> write_file file (Jv_obs.Export.jsonl obs));
  if metrics then begin
    let snap = Jv_obs.Obs.create () in
    List.iter (Jv_obs.Obs.merge_metrics ~into:snap) (obs :: sinks);
    Printf.printf "\n%s" (Jv_obs.Export.prometheus snap)
  end
