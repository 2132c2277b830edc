(* gossip-256: the decentralised rollout of bench/fleet.ml at full size.

   256 miniweb instances with 64K-word heaps under the tick-based open
   loop (4 arrivals per fleet round); one proposal to 5.1.2 spreads by
   rumor and anti-entropy over a control plane that drops 10% of its
   packets, and every instance applies on a local quorum read.  With
   tick-based arrivals every run of one seed does identical simulated
   work, so [rollout_s] measures only the program's speed.  The seed
   draws the drop plan, which [Gossip.create] also uses as the runtime's
   own randomness (peer choice, apply jitter).  Set-up and rollout repeat
   until the run has taken [seconds]. *)

module F = Jv_fleet
module G = Jv_gossip
module FC = Fleet_common

let size = 256
let drop = 0.10
let min_rollouts = 3

let setup ~seed ~iteration =
  FC.time_spec_layers ();
  let fleet, ol = FC.boot_open_loop ~size in
  let chaos =
    match
      Jv_faults.Faults.parse ~seed:(Pb.sub_seed ~seed ~stream:(Printf.sprintf "gossip.drop.%d" iteration))
        (Printf.sprintf "net.link=drop@%.2f" drop)
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let params = { G.Gossip.default_params with G.Gossip.g_apply_jitter = 64 } in
  let g = Trace.span "gossip.create" (fun () -> G.Gossip.create ~chaos ~params ~fleet ()) in
  (fleet, ol, g)


(* One rollout: propose at node 0, run the gossip runtime to quiescence
   with the open loop stepping after every round, then let the request
   tail drain (untimed). *)
let rollout (fleet, ol, g) =
  let c0 = FC.counters fleet in
  Pb.settle_host_gc ();
  let a0 = Pb.alloc_words () in
  let t_req = Pb.now () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:FC.to_version);
  (* each interval between callbacks is one gossip step with its inner
     fleet round: traced, it is one [gossip.step] span *)
  let span = ref (if !Trace.on then Trace.open_span "gossip.step" else -1) in
  let on_round _ =
    if !Trace.on then Trace.close_span !span;
    FC.openloop_step ol fleet;
    if !Trace.on then span := Trace.open_span "gossip.step"
  in
  let rounds = G.Gossip.run g ~on_round ~max_rounds:6000 () in
  if !Trace.on then Trace.close_span !span;
  let rollout_s = Pb.now () -. t_req in
  let alloc = Pb.alloc_words () -. a0 in
  ignore
    (F.Openloop.drain ol ~tick:(F.Fleet.ticks fleet)
       ~round:(fun () -> FC.fleet_round fleet)
       ~patience:600);
  let r = G.Gossip.report g ~rounds in
  FC.note_updates fleet ~c0;
  Pb.set "gossip.votes_seen" (float_of_int r.G.Gossip.gr_votes_seen);
  Pb.set "gossip.rumor_bytes" (float_of_int r.G.Gossip.gr_rumor_bytes);
  Pb.set "gossip.pushes" (float_of_int r.G.Gossip.gr_pushes);
  let dropped = F.Openloop.dropped_in_flight ol + F.Lb.dropped (F.Fleet.lb fleet) in
  let timed_out = F.Openloop.in_flight ol in
  let errors = F.Openloop.errors ol + F.Openloop.refused ol in
  let stuck = List.length r.G.Gossip.gr_stuck in
  let uniform = F.Fleet.uniform_version fleet in
  {
    FC.rollout_s;
    pauses = FC.applied_pauses fleet;
    alloc;
    gates =
      [
        ( "converged at epoch 1 on " ^ FC.to_version,
          r.G.Gossip.gr_converged && r.G.Gossip.gr_epoch = Some 1
          && uniform = Some FC.to_version );
        (Printf.sprintf "0 stuck (%d)" stuck, stuck = 0);
        ( Printf.sprintf "0 dropped in flight (%d), 0 errored or unanswered (%d)" dropped
            (errors + timed_out),
          dropped = 0 && errors + timed_out = 0 );
      ];
    offered = F.Openloop.offered ol;
    failed = dropped + errors + timed_out + (size - r.G.Gossip.gr_applied);
    note =
      Printf.sprintf "rollout %.3f s: %s" rollout_s (Fmt.str "%a" G.Gossip.pp_report r);
  }

let run ~seed ~seconds =
  FC.run_rollouts ~size ~min_rollouts ~seconds
    ~setup:(fun iteration -> setup ~seed ~iteration)
    ~rollout
