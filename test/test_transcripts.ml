(* Pinned fleet transcripts: six seeded rollouts replayed round by round
   and compared byte for byte against the goldens in test/transcripts/.

   A transcript holds, in order of occurrence:
   - every "fleet.rollout" and "gossip" event on the fleet sink, with
     Float fields dropped (they carry host time);
   - one "state" line for each round in which any instance's (version,
     status, LB admission, killed, gossip epoch) changed;
   - for the lossy gossip run, one "net" line for each round in which the
     control plane's push, reconciliation, refusal or byte counters moved;
   - the final [Orchestrator.pp_result] or [Gossip.pp_report] line.

   Any change to when an instance drains, updates, reverts, is probed,
   readmitted or quarantined shows up here.  A failing case writes its
   whole transcript next to the test binary as NAME.actual; after an
   intended behaviour change, copy it over the golden and list the change
   in CHANGES.md. *)

module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core
module A = Jv_apps
module Obs = Jv_obs.Obs
module Faults = Jv_faults.Faults

let fleet_config =
  { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 18 }

let boot ?(config = fleet_config) ?(load = true) ~size ~version () =
  let fleet =
    F.Fleet.create ~config ~policy:F.Lb.Round_robin
      ~profile:F.Profile.miniweb ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  if load then begin
    ignore (F.Fleet.attach_load ~concurrency:6 ~request_timeout:40 fleet);
    F.Fleet.run fleet ~rounds:100
  end;
  fleet

let plan ~seed spec =
  match Faults.parse ~seed spec with Ok p -> p | Error e -> failwith e

(* --- the recorder ------------------------------------------------------- *)

type recorder = {
  fleet : F.Fleet.t;
  epoch : int -> string; (* gossip epoch of an instance, "-" without gossip *)
  net : string list; (* fleet-sink counters whose per-round moves are kept *)
  buf : Buffer.t;
  mutable next_seq : int; (* first fleet-sink event not yet recorded *)
  mutable last_state : string;
  mutable last_net : int list;
}

let recorder ?(epoch = fun _ -> "-") ?(net = []) fleet =
  {
    fleet;
    epoch;
    net;
    buf = Buffer.create 4096;
    next_seq = 0;
    last_state = "";
    last_net = List.map (fun _ -> 0) net;
  }

let field (k, v) =
  match v with
  | Obs.Int n -> Some (Printf.sprintf "%s=%d" k n)
  | Obs.Str s -> Some (Printf.sprintf "%s=%s" k s)
  | Obs.Float _ -> None

let state_line r =
  String.concat " "
    (List.map
       (fun (i : F.Instance.t) ->
         let id = i.F.Instance.i_id in
         Printf.sprintf "%d=%s,%s,%s,%s,e%s" id i.F.Instance.i_version
           (F.Instance.status_to_string i.F.Instance.i_status)
           (if F.Lb.admitting (F.Fleet.lb r.fleet) ~id then "admit"
            else "noadmit")
           (match Jv_vm.Vm.killed i.F.Instance.i_vm with
           | Some _ -> "killed"
           | None -> "live")
           (r.epoch id))
       (F.Fleet.instances r.fleet))

(* Called once after every fleet round. *)
let record r =
  List.iter
    (fun (ev : Obs.event) ->
      if ev.Obs.ev_seq >= r.next_seq then begin
        r.next_seq <- ev.Obs.ev_seq + 1;
        if ev.Obs.ev_scope = "fleet.rollout" || ev.Obs.ev_scope = "gossip"
        then
          Buffer.add_string r.buf
            (Printf.sprintf "[%d] %s %s\n" ev.Obs.ev_tick ev.Obs.ev_name
               (String.concat " " (List.filter_map field ev.Obs.ev_fields)))
      end)
    (Obs.events (F.Fleet.obs r.fleet));
  let s = state_line r in
  if s <> r.last_state then begin
    r.last_state <- s;
    Buffer.add_string r.buf
      (Printf.sprintf "[%d] state %s\n" (F.Fleet.ticks r.fleet) s)
  end;
  let now = List.map (Obs.counter_value (F.Fleet.obs r.fleet)) r.net in
  if now <> r.last_net then begin
    Buffer.add_string r.buf
      (Printf.sprintf "[%d] net %s\n" (F.Fleet.ticks r.fleet)
         (String.concat " "
            (List.map2
               (fun name (n, old) -> Printf.sprintf "%s+%d" name (n - old))
               r.net
               (List.combine now r.last_net))));
    r.last_net <- now
  end

let finish r line =
  Buffer.add_string r.buf (line ^ "\n");
  Buffer.contents r.buf

(* Step fleet, rollout and (optionally) supervisor until the rollout has
   a result and every recovery is done. *)
let drive_orchestrator ?sup ?(until = fun () -> false) r orch =
  let rec go n =
    if n > 30_000 then failwith "rollout did not finish"
    else
      let settled =
        match sup with None -> true | Some s -> F.Supervisor.settled s
      in
      match F.Orchestrator.result orch with
      | Some _ when settled -> ()
      | _ when until () -> ()
      | _ ->
          F.Fleet.round r.fleet;
          F.Orchestrator.step orch;
          Option.iter F.Supervisor.step sup;
          record r;
          go (n + 1)
  in
  go 0

let orchestrator_result ?sup orch =
  match F.Orchestrator.result orch with
  | None -> failwith "no rollout result"
  | Some res ->
      let res =
        match sup with
        | None -> res
        | Some s ->
            F.Orchestrator.reconcile res ~recovered:(F.Supervisor.recovered s)
      in
      Fmt.str "%a" F.Orchestrator.pp_result res

let rolling ?guard ?(max_retries = 0) ?(backoff_base = 40)
    ?(on_exhausted = `Halt) () =
  {
    (F.Orchestrator.default_params (F.Orchestrator.Rolling { batch_size = 1 }))
    with
    F.Orchestrator.update_timeout = 200;
    max_retries;
    backoff_base;
    on_exhausted;
    guard;
  }

(* --- the five scenarios ------------------------------------------------- *)

(* 1. Seeded faults in every updater phase: two retries per instance,
   quarantine when they are spent, guarded commits. *)
let faulty_retries () =
  let fleet = boot ~size:3 ~version:"5.1.1" () in
  F.Fleet.set_faults fleet (Some (plan ~seed:11 "updater.*=raise@0.3"));
  let r = recorder fleet in
  let orch =
    F.Orchestrator.create
      ~params:
        (rolling ~guard:(J.Guard.config ()) ~max_retries:2 ~backoff_base:10
           ~on_exhausted:`Quarantine ())
      ~fleet ~to_version:"5.1.2" ()
  in
  record r;
  drive_orchestrator r orch;
  finish r (orchestrator_result orch)

(* 2. The semantically bad miniweb release trips its guard window and the
   orchestrator fences the rollout. *)
let guard_fence () =
  let fleet = boot ~size:3 ~version:"5.1.10" () in
  let r = recorder fleet in
  let orch =
    F.Orchestrator.create
      ~params:(rolling ~guard:(J.Guard.config ()) ())
      ~fleet ~to_version:A.Miniweb.bad_update ()
  in
  record r;
  drive_orchestrator r orch;
  finish r (orchestrator_result orch)

(* 3. Instance 0 is killed while its update is pending; the supervisor
   restarts, catches up and readmits it. *)
let kill_mid_update () =
  let fleet = boot ~size:3 ~version:"5.1.1" () in
  let r = recorder fleet in
  let orch =
    F.Orchestrator.create
      ~params:
        (rolling ~max_retries:1 ~backoff_base:20 ~on_exhausted:`Quarantine ())
      ~fleet ~to_version:"5.1.2" ()
  in
  let sup =
    F.Supervisor.create
      ~params:
        {
          F.Supervisor.default_params with
          F.Supervisor.s_backoff_base = 20;
          s_snapshot_every = 40;
        }
      ~fleet ()
  in
  record r;
  drive_orchestrator ~sup r orch ~until:(fun () ->
      (F.Fleet.instance fleet 0).F.Instance.i_status = F.Instance.Updating);
  F.Fleet.set_faults fleet (Some (plan ~seed:5 "vm.crash=kill@1.0x1"));
  drive_orchestrator ~sup r orch;
  finish r (orchestrator_result ~sup orch)

let gossip_params =
  {
    G.Gossip.default_params with
    G.Gossip.g_digest_every = 8;
    g_apply_jitter = 4;
    g_drain_timeout = 60;
    g_update_timeout = 200;
  }

let run_gossip ?chaos ?net ?(params = gossip_params) ~origin ~to_version
    fleet =
  let g = G.Gossip.create ?chaos ~params ~fleet () in
  let r =
    recorder ?net
      ~epoch:(fun id -> string_of_int (G.Node.epoch (G.Gossip.node g id)))
      fleet
  in
  record r;
  ignore (G.Gossip.propose g ~origin ~to_version);
  let rounds =
    G.Gossip.run g ~on_round:(fun _ -> record r) ~max_rounds:8_000 ()
  in
  finish r (Fmt.str "%a" G.Gossip.pp_report (G.Gossip.report g ~rounds))

(* 4. A gossip rollout of the bad release: the guard trip fences it by
   trip vote and every node reverts. *)
let gossip_fence () =
  let fleet = boot ~size:4 ~version:"5.1.10" () in
  run_gossip
    ~params:{ gossip_params with G.Gossip.g_guard = Some (J.Guard.config ()) }
    ~origin:1 ~to_version:A.Miniweb.bad_update fleet

(* 5. One injected transformer fault: the node that draws it backs off,
   retries and lands with the rest. *)
let gossip_retry () =
  let fleet = boot ~load:false ~size:4 ~version:"5.1.1" () in
  F.Fleet.set_faults fleet (Some (plan ~seed:42 "updater.transform=raise x1"));
  run_gossip ~origin:0 ~to_version:"5.1.2" fleet

(* 6. A 32-node rollout over a control plane that drops 10% of its
   packets: lost pushes are repaired by DIGEST/WANT reconciliation, so
   every digest answer, push and byte on the wire is pinned per round. *)
let gossip_drop () =
  let config =
    { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 16 }
  in
  let fleet = boot ~config ~size:32 ~version:"5.1.1" () in
  run_gossip
    ~chaos:(plan ~seed:7 "net.link=drop@0.10")
    ~net:
      [
        "gossip.pushes";
        "gossip.digest_reconciliations";
        "gossip.push_refused";
        "gossip.digest_refused";
        "gossip.rumor_bytes";
      ]
    ~origin:0 ~to_version:"5.1.2" fleet

(* --- golden comparison -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys -> if x = y then go (n + 1) (xs, ys) else (n, x, y)
    | x :: _, [] -> (n, x, "<end>")
    | [], y :: _ -> (n, "<end>", y)
    | [], [] -> (n, "", "")
  in
  go 1 (la, lb)

let check_golden name scenario () =
  let actual = scenario () in
  let golden = Filename.concat "transcripts" (name ^ ".txt") in
  let expected = read_file golden in
  if actual <> expected then begin
    let dump = Filename.concat (Sys.getcwd ()) (name ^ ".actual") in
    write_file dump actual;
    let line, want, got = first_difference expected actual in
    Alcotest.failf
      "%s differs at line %d (whole run in %s):\n  golden: %s\n  actual: %s"
      golden line dump want got
  end

let suite =
  [
    Alcotest.test_case "orchestrator: faulty updater, retries, quarantine"
      `Quick
      (check_golden "orchestrator_faults" faulty_retries);
    Alcotest.test_case "orchestrator: guard trip fences the rollout" `Quick
      (check_golden "orchestrator_guard_fence" guard_fence);
    Alcotest.test_case "orchestrator + supervisor: kill mid-update" `Quick
      (check_golden "orchestrator_kill_heal" kill_mid_update);
    Alcotest.test_case "gossip: guard trip fences by vote" `Quick
      (check_golden "gossip_guard_fence" gossip_fence);
    Alcotest.test_case "gossip: transformer fault, backoff, retry" `Quick
      (check_golden "gossip_retry" gossip_retry);
    Alcotest.test_case "gossip: 10% control drop, reconciliation" `Quick
      (check_golden "gossip_drop" gossip_drop);
  ]
