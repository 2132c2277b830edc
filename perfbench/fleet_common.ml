(* Plumbing shared by the two fleet workloads (gossip-256, heal-storm):
   booting a miniweb fleet under the tick-based open loop, the timed
   fleet round, and the per-layer readings summed over the instances. *)

module VM = Jv_vm
module F = Jv_fleet
module Obs = Jv_obs.Obs
module Metrics = Jv_obs.Metrics

let from_version = "5.1.1"
let to_version = "5.1.2"

(* open-loop arrivals per fleet round, as bench/fleet.ml *)
let arrivals_per_round = 4.0

(* Many small heaps: miniweb under single-request sessions fits 64K
   words per semi-space. *)
let config = { F.Instance.default_config with VM.State.heap_words = 1 lsl 16 }

let fleet_round fleet = Trace.span "fleet.round" (fun () -> F.Fleet.round fleet)

let openloop_step ol fleet =
  Trace.span "fleet.openloop" (fun () -> F.Openloop.step ol ~tick:(F.Fleet.ticks fleet))

(* The spec pipeline of the rollout, run by the benchmark on the
   workload's own programs so the [lang] and [core.*] layers are timed
   (the fleet runs the same pipeline inside every instance). *)
let time_spec_layers () =
  let src v = Jv_apps.Patching.source F.Profile.miniweb.F.Profile.pr_versioned ~version:v in
  let old_program = Pb.compile (src from_version) in
  let new_program = Pb.compile (src to_version) in
  ignore
    (Pb.prepare_update
       ~overrides:(F.Profile.miniweb.F.Profile.pr_overrides ~to_version)
       ~version_tag:(Jv_apps.Common.version_tag from_version)
       ~old_program ~new_program ())

(* Boot [size] instances, let every server reach its accept loop, then
   run the open loop for a steady stretch before any update. *)
let boot_open_loop ~size =
  let profile = F.Profile.miniweb in
  let fleet =
    Trace.span "fleet.create" (fun () ->
        F.Fleet.create ~config ~policy:F.Lb.Round_robin ~profile ~version:from_version ~size ())
  in
  for _ = 1 to 30 do
    fleet_round fleet
  done;
  let ol =
    F.Openloop.create
      ~net:(F.Lb.front (F.Fleet.lb fleet))
      ~port:F.Fleet.default_lb_port
      ~line:(List.hd profile.F.Profile.pr_script)
      ~ok:profile.F.Profile.pr_ok ~rate:arrivals_per_round ~obs:(F.Fleet.obs fleet) ()
  in
  for _ = 1 to 120 do
    fleet_round fleet;
    openloop_step ol fleet
  done;
  (fleet, ol)

(* Sums over the instances' VMs (a restarted instance counts from its
   new VM): instructions, JIT compiles, simnet bytes. *)
type counters = { instr : int; compiles : int; bytes : int }

let counters fleet =
  List.fold_left
    (fun acc (i : F.Instance.t) ->
      let s = VM.Vm.stats i.F.Instance.i_vm in
      let b1, b2 = Jv_simnet.Simnet.stats (F.Instance.net i) in
      {
        instr = acc.instr + s.VM.Vm.instr_count;
        compiles = acc.compiles + s.VM.Vm.compile_count + s.VM.Vm.opt_compile_count;
        bytes = acc.bytes + b1 + b2;
      })
    { instr = 0; compiles = 0; bytes = 0 }
    (F.Fleet.instances fleet)

(* The updater's own split of every applied update, read from the
   per-VM [core.update.*] metrics as bench/fig5.ml merges them. *)
let note_updates fleet ~(c0 : counters) =
  let c1 = counters fleet in
  Pb.addi "vm.instructions" (max 0 (c1.instr - c0.instr));
  Pb.addi "vm.jit.compiles" (max 0 (c1.compiles - c0.compiles));
  Pb.addi "simnet.bytes" (max 0 (c1.bytes - c0.bytes));
  let agg = Obs.create () in
  List.iter
    (fun (i : F.Instance.t) -> Obs.merge_metrics ~into:agg (VM.Vm.obs i.F.Instance.i_vm))
    (F.Fleet.instances fleet);
  let hsum name =
    match Obs.find_histogram agg name with Some h -> Metrics.sum h | None -> 0.0
  in
  Pb.addi "updates.applied" (Obs.counter_value agg "core.update.applied");
  Pb.addi "core.update.attempts" (Obs.counter_value agg "core.update.attempts");
  List.iter
    (fun phase ->
      let name = "core.update." ^ phase ^ "_ms" in
      Pb.add name (hsum name))
    [ "load"; "gc"; "transform"; "verify" ];
  Pb.add "core.update.transformed_objects" (hsum "core.update.transformed_objects");
  Pb.add "core.safepoint.wait_rounds" (hsum "core.update.wait_rounds")

(* The pause every instance VM saw, from the [update.applied] event its
   updater recorded (ms): the benchmark cannot time one instance's
   scheduler round inside [Fleet.round].  A VM the supervisor replaced
   takes its events with it. *)
let applied_pauses fleet =
  List.concat_map
    (fun (i : F.Instance.t) ->
      List.filter_map
        (fun (ev : Obs.event) ->
          if ev.Obs.ev_name <> "update.applied" then None
          else
            match List.assoc_opt "pause_ms" ev.Obs.ev_fields with
            | Some (Obs.Float ms) -> Some ms
            | _ -> None)
        (Obs.events (VM.Vm.obs i.F.Instance.i_vm)))
    (F.Fleet.instances fleet)

(* --- repeated rollouts ----------------------------------------------------- *)

type rollout = {
  rollout_s : float;
  pauses : float list; (* ms: each instance's own update pause *)
  alloc : float; (* host words allocated by the rollout *)
  gates : (string * bool) list;
  offered : int; (* open-loop arrivals *)
  failed : int;
  note : string;
}

(* Set up a fresh fleet and roll it out, again and again, until the run
   has taken [seconds], at least [min_rollouts] rollouts ran and their
   number is odd, so that the median is a middle sample and not the upper
   of two; rollout [i] draws its inputs from (seed, i) through
   [setup i]. *)
let run_rollouts ~size ~min_rollouts ~seconds ~setup ~rollout : Pb.result =
  let t_start = Pb.now () in
  let rec go i setup_s rs =
    if i >= min_rollouts && i mod 2 = 1 && Pb.now () -. t_start >= seconds then
      (setup_s, List.rev rs)
    else
      let env, s = Pb.timed_setup (fun () -> setup i) in
      let r = Trace.span "bench.measure" (fun () -> rollout env) in
      go (i + 1) (s :: setup_s) (r :: rs)
  in
  let setup_s, rs = go 0 [] [] in
  {
    Pb.r_gates = Pb.merge_gates (List.map (fun r -> r.gates) rs);
    r_attempted = List.fold_left (fun n r -> n + r.offered + size) 0 rs;
    r_failed = List.fold_left (fun n r -> n + r.failed) 0 rs;
    r_e2e =
      [
        Pb.median_metric "pause_ms" "ms" (List.concat_map (fun r -> r.pauses) rs);
        Pb.median_metric "rollout_s" "s" (List.map (fun r -> r.rollout_s) rs);
        Pb.setup_metric setup_s;
        Pb.median_metric "alloc_mw" "Mwords" (List.map (fun r -> r.alloc /. 1e6) rs);
        Pb.peak_heap_metric ();
      ];
    r_notes = List.map (fun r -> r.note) rs;
  }
