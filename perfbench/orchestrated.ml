(* The orchestrated fleet workloads: bench/fleet.ml's heal_storm_run,
   with and without its kill storm.

   128 miniweb instances under the tick-based open loop (4 arrivals per
   fleet round); the orchestrator rolls 5.1.1 -> 5.1.2 in batches of
   size/8 while the supervisor watches every instance.  Set-up and
   rollout repeat until the run has taken [seconds].

   - rolling-128: no kills.  The supervisor steps every round but has
     nothing to restart; the orchestrator drives every wave.
   - heal-storm: a seeded kill plan crashes size/5 instances mid-rollout
     and the supervisor restarts, restores, catches up and readmits each
     one.  The seed draws the kill plan. *)

module F = Jv_fleet
module FC = Fleet_common

let size = 128
let min_rollouts = 3
(* a rollout settles in about 150 rounds; this is where the run gives up *)
let max_rounds = 2_000

let supervisor_params =
  { F.Supervisor.default_params with F.Supervisor.s_backoff_base = 20; s_snapshot_every = 40 }

let orchestrator_params =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = size / 8 })) with
    F.Orchestrator.update_timeout = 250;
    max_retries = 1;
    backoff_base = 20;
    on_exhausted = `Quarantine;
  }

let kill_plan ~seed ~iteration ~kills =
  match
    Jv_faults.Faults.parse
      ~seed:(Pb.sub_seed ~seed ~stream:(Printf.sprintf "heal.kills.%d" iteration))
      (Printf.sprintf "vm.crash=kill@0.002x%d" kills)
  with
  | Ok p -> p
  | Error e -> failwith e

let setup ~kills ~seed ~iteration =
  FC.time_spec_layers ();
  let fleet, ol = FC.boot_open_loop ~size in
  let plan = if kills = 0 then None else Some (kill_plan ~seed ~iteration ~kills) in
  F.Fleet.set_faults fleet plan;
  (fleet, ol, plan)

let rollout ~post_rounds (fleet, ol, plan) =
  let c0 = FC.counters fleet in
  Pb.settle_host_gc ();
  let a0 = Pb.alloc_words () in
  let t_req = Pb.now () in
  let orch =
    Trace.span "fleet.orchestrator.create" (fun () ->
        F.Orchestrator.create ~params:orchestrator_params ~fleet ~to_version:FC.to_version ())
  in
  let sup = F.Supervisor.create ~params:supervisor_params ~fleet () in
  let supervise () = Trace.span "fleet.supervisor.step" (fun () -> F.Supervisor.step sup) in
  let tick () =
    FC.fleet_round fleet;
    Trace.span "fleet.orchestrator.step" (fun () -> F.Orchestrator.step orch);
    supervise ();
    FC.openloop_step ol fleet
  in
  (* done: the rollout has a result, every recovery finished, and the
     fleet is at full strength on one version *)
  let settled () =
    F.Orchestrator.result orch <> None
    && F.Supervisor.settled sup
    && F.Supervisor.alive sup = size
    && F.Fleet.uniform_version fleet = Some FC.to_version
  in
  let rounds = ref 0 in
  while (not (settled ())) && !rounds < max_rounds do
    tick ();
    incr rounds
  done;
  let rollout_s = Pb.now () -. t_req in
  let alloc = Pb.alloc_words () -. a0 in
  (* untimed: [post_rounds] more supervised rounds, then the request tail
     drains; a request unanswered after the 100-round drain has timed
     out *)
  let errs0 = F.Openloop.errors ol in
  for _ = 1 to post_rounds do
    FC.fleet_round fleet;
    supervise ();
    FC.openloop_step ol fleet
  done;
  ignore
    (F.Openloop.drain ol ~tick:(F.Fleet.ticks fleet)
       ~round:(fun () -> FC.fleet_round fleet)
       ~patience:100);
  let residual = F.Openloop.errors ol - errs0 in
  FC.note_updates fleet ~c0;
  let result =
    Option.map
      (fun r -> F.Orchestrator.reconcile r ~recovered:(F.Supervisor.recovered sup))
      (F.Orchestrator.result orch)
  in
  let updated = match result with Some r -> List.length r.F.Orchestrator.r_updated | None -> 0 in
  let alive = F.Supervisor.alive sup in
  let uniform = F.Fleet.uniform_version fleet in
  let dropped = F.Openloop.dropped_in_flight ol + F.Lb.dropped (F.Fleet.lb fleet) in
  let unanswered = F.Openloop.in_flight ol + F.Openloop.refused ol in
  let errors = F.Openloop.errors ol in
  let strength =
    ( Printf.sprintf "full strength (%d/%d alive) at one version (%s)" alive size
        (Option.value uniform ~default:"mixed"),
      alive = size && uniform = Some FC.to_version )
  in
  let gates =
    match plan with
    | None ->
        [
          strength;
          ( Printf.sprintf "orchestrator result OK with every instance updated (%d)" updated,
            (match result with Some r -> r.F.Orchestrator.r_ok | None -> false) && updated = size );
          ( Printf.sprintf "0 dropped in flight (%d), 0 errored or unanswered (%d)" dropped
              (errors + unanswered),
            dropped = 0 && errors + unanswered = 0 );
        ]
    | Some _ ->
        [
          strength;
          ("orchestrator result exists", result <> None);
          (Printf.sprintf "0 residual errors (%d)" residual, residual = 0);
        ]
  in
  {
    FC.rollout_s;
    pauses = FC.applied_pauses fleet;
    alloc;
    gates;
    offered = F.Openloop.offered ol;
    failed = errors + dropped + unanswered + (if settled () then 0 else 1);
    note =
      Printf.sprintf
        "rollout %.3f s in %d rounds: %d kills fired, %d restarts, MTTR %s rounds; %s; %d dropped in flight, %d errors, %d in flight, %d refused"
        rollout_s !rounds
        (match plan with Some p -> Jv_faults.Faults.fired p | None -> 0)
        (F.Supervisor.restarts sup)
        (match Jv_obs.Obs.find_histogram (F.Fleet.obs fleet) "fleet.mttr_rounds" with
        | Some h when Jv_obs.Metrics.count h > 0 -> Printf.sprintf "%.1f" (Jv_obs.Metrics.mean h)
        | _ -> "n/a")
        (match result with
        | Some r -> Fmt.str "%a" F.Orchestrator.pp_result r
        | None -> "NO RESULT")
        dropped errors (F.Openloop.in_flight ol) (F.Openloop.refused ol);
  }

let run ~kills ~post_rounds ~seed ~seconds =
  FC.run_rollouts ~size ~min_rollouts ~seconds
    ~setup:(fun iteration -> setup ~kills ~seed ~iteration)
    ~rollout:(rollout ~post_rounds)

let rolling_run = run ~kills:0 ~post_rounds:0

(* the storm over, 300 more rounds measure residual errors on the healed
   fleet, as bench/fleet.ml's heal_storm does *)
let heal_run = run ~kills:(size / 5) ~post_rounds:300
