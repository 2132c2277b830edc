(* Decentralized update distribution (lib/gossip): the locked update
   mempool, the wire codec, push/pull anti-entropy dissemination, quorum
   epoch agreement, and the peer-to-peer fence wave — no orchestrator
   anywhere in this file. *)

module F = Jv_fleet
module G = Jv_gossip
module J = Jvolve_core
module A = Jv_apps
module Faults = Jv_faults.Faults

let fleet_config =
  { Jv_vm.State.default_config with Jv_vm.State.heap_words = 1 lsl 18 }

let boot_fleet ?(size = 4) ?(version = "5.1.1") () =
  let fleet =
    F.Fleet.create ~config:fleet_config ~policy:F.Lb.Round_robin
      ~profile:F.Profile.miniweb ~version ~size ()
  in
  F.Fleet.run fleet ~rounds:30;
  fleet

(* fast-converging settings for small test fleets *)
let test_params =
  {
    G.Gossip.default_params with
    G.Gossip.g_digest_every = 8;
    g_apply_jitter = 4;
    g_drain_timeout = 60;
    g_update_timeout = 200;
  }

(* --- mempool: dedup, orphan votes, con-sticky, lock discipline ---------- *)

let prop ?(epoch = 1) ?(origin = 0) id =
  {
    G.Mempool.p_id = id;
    p_epoch = epoch;
    p_from_version = "5.1.1";
    p_to_version = "5.1.2";
    p_digest = "d34db33f";
    p_origin = origin;
  }

let vote ?(stance = G.Mempool.Pro) ?(why = "ok") ~voter prop_id =
  { G.Mempool.v_prop = prop_id; v_voter = voter; v_stance = stance; v_why = why }

let test_mempool_dedup () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      Alcotest.(check bool) "first insert is fresh" true
        (G.Mempool.add_proposal m (prop "a") = `Fresh);
      Alcotest.(check bool) "re-delivery is a duplicate" true
        (G.Mempool.add_proposal m (prop "a") = `Duplicate);
      Alcotest.(check bool) "orphan vote accepted" true
        (G.Mempool.add_vote m (vote ~voter:7 "zzz") = `Fresh);
      Alcotest.(check bool) "same vote re-delivered is stale" true
        (G.Mempool.add_vote m (vote ~voter:7 "zzz") = `Stale);
      ignore (G.Mempool.add_vote m (vote ~voter:1 "a"));
      ignore (G.Mempool.add_vote m (vote ~voter:2 "a"));
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "tally counts voters once"
        (2, 0, 0) (pro, con, trip))

let test_mempool_con_sticky () =
  let m = G.Mempool.create () in
  G.Mempool.with_lock m (fun () ->
      ignore (G.Mempool.add_proposal m (prop "a"));
      ignore (G.Mempool.add_vote m (vote ~voter:1 "a"));
      (* hardening Pro -> Con (a guard trip) replaces the vote *)
      Alcotest.(check bool) "pro hardens to con" true
        (G.Mempool.add_vote m
           (vote ~voter:1 ~stance:G.Mempool.Con ~why:"trip:app-errors" "a")
        = `Hardened);
      (* a stale re-delivered Pro must NOT talk the voter back *)
      Alcotest.(check bool) "con is sticky" true
        (G.Mempool.add_vote m (vote ~voter:1 "a") = `Stale);
      let pro, con, trip = G.Mempool.tally m ~prop:"a" in
      Alcotest.(check (triple int int int)) "trip vote counted" (0, 1, 1)
        (pro, con, trip))

let test_mempool_lock_discipline () =
  let m = G.Mempool.create () in
  let other = G.Mempool.create () in
  let outside what f =
    Alcotest.check_raises (what ^ " outside the lock") G.Mempool.Not_locked
      (fun () -> ignore (f ()))
  in
  outside "add_proposal" (fun () -> G.Mempool.add_proposal m (prop "a"));
  outside "add_vote" (fun () -> G.Mempool.add_vote m (vote ~voter:1 "a"));
  outside "proposals" (fun () -> G.Mempool.proposals m);
  outside "tally" (fun () -> G.Mempool.tally m ~prop:"a");
  outside "votes" (fun () -> G.Mempool.votes m ~prop:"a");
  outside "keys" (fun () -> G.Mempool.keys m);
  outside "missing_from" (fun () -> G.Mempool.missing_from m ~remote_keys:[]);
  outside "wanted" (fun () -> G.Mempool.wanted m ~remote_keys:[]);
  outside "size" (fun () -> G.Mempool.size m);
  outside "generation" (fun () -> G.Mempool.generation m);
  (* comparing two pools needs both locks *)
  G.Mempool.with_lock m (fun () ->
      outside "same_items" (fun () -> G.Mempool.same_items m other));
  G.Mempool.with_lock m (fun () ->
      Alcotest.check_raises "with_lock is non-reentrant"
        (Invalid_argument "Mempool.with_lock: non-reentrant") (fun () ->
          G.Mempool.with_lock m (fun () -> ())));
  (* the lock is released even when the body raises *)
  (try G.Mempool.with_lock m (fun () -> failwith "boom") with _ -> ());
  G.Mempool.with_lock m (fun () ->
      Alcotest.(check int) "lock released after an exception" 0
        (G.Mempool.size m))

(* --- mempool against a naive model -------------------------------------- *)

(* The reference: plain insertion-order lists, every read a full scan —
   the pool as it was before it kept running tallies and key indexes. *)
module Model = struct
  type t = {
    mutable props : G.Mempool.proposal list;
    mutable votes : G.Mempool.vote list; (* one per (proposal, voter) *)
  }

  let create () = { props = []; votes = [] }

  let add_proposal m (p : G.Mempool.proposal) =
    if List.exists (fun (q : G.Mempool.proposal) -> q.p_id = p.p_id) m.props
    then `Duplicate
    else begin
      m.props <- m.props @ [ p ];
      `Fresh
    end

  let same_slot (a : G.Mempool.vote) (b : G.Mempool.vote) =
    a.v_prop = b.v_prop && a.v_voter = b.v_voter

  let add_vote m (v : G.Mempool.vote) =
    match List.find_opt (same_slot v) m.votes with
    | None ->
        m.votes <- m.votes @ [ v ];
        `Fresh
    | Some old when old.v_stance = G.Mempool.Pro && v.v_stance = G.Mempool.Con
      ->
        m.votes <- List.map (fun o -> if same_slot v o then v else o) m.votes;
        `Hardened
    | Some _ -> `Stale

  let votes m ~prop =
    List.filter (fun (v : G.Mempool.vote) -> v.v_prop = prop) m.votes

  let tally m ~prop =
    List.fold_left
      (fun (pro, con, trip) (v : G.Mempool.vote) ->
        match v.v_stance with
        | G.Mempool.Pro -> (pro + 1, con, trip)
        | G.Mempool.Con ->
            let is_trip =
              String.length v.v_why >= 5 && String.sub v.v_why 0 5 = "trip:"
            in
            (pro, con + 1, if is_trip then trip + 1 else trip))
      (0, 0, 0) (votes m ~prop)

  let prop_key (p : G.Mempool.proposal) = "P:" ^ p.p_id

  let vote_key (v : G.Mempool.vote) =
    Printf.sprintf "V:%s:%d:%s" v.v_prop v.v_voter
      (if v.v_stance = G.Mempool.Pro then "P" else "C")

  let keys m = List.map prop_key m.props @ List.map vote_key m.votes

  let missing_from m ~remote_keys =
    ( List.filter (fun p -> not (List.mem (prop_key p) remote_keys)) m.props,
      List.filter (fun v -> not (List.mem (vote_key v) remote_keys)) m.votes )

  let size m = List.length m.props + List.length m.votes
  let same_items a b = List.sort compare (keys a) = List.sort compare (keys b)
end

type mop = Op_prop of string | Op_vote of G.Mempool.vote

(* "z" never gets a proposal: its votes stay orphans *)
let gen_mop =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun id -> Op_prop id) (oneofl [ "a"; "b"; "c" ]));
      ( 5,
        map
          (fun (((p, voter), stance), why) ->
            let stance, why =
              match (stance, why) with
              | `Pro, _ -> (G.Mempool.Pro, "ok")
              | `Con, `Trip -> (G.Mempool.Con, "trip:app-errors")
              | `Con, `Other -> (G.Mempool.Con, "base-mismatch:5.1.0@e0")
            in
            Op_vote (vote ~stance ~why ~voter p))
          (pair
             (pair
                (pair (oneofl [ "a"; "b"; "c"; "z" ]) (int_bound 4))
                (oneofl [ `Pro; `Con ]))
             (oneofl [ `Trip; `Other ])) );
    ]

let show_mop = function
  | Op_prop id -> "prop " ^ id
  | Op_vote v ->
      Printf.sprintf "vote %s/%d %s %s" v.G.Mempool.v_prop v.G.Mempool.v_voter
        (if v.G.Mempool.v_stance = G.Mempool.Pro then "pro" else "con")
        v.G.Mempool.v_why

let arb_mempool_run =
  QCheck.make
    ~print:(fun (ops, k, seed) ->
      Printf.sprintf "k=%d seed=%d [%s]" k seed
        (String.concat "; " (List.map show_mop ops)))
    QCheck.Gen.(
      triple (list_size (int_bound 40) gen_mop) (int_bound 4) (int_bound 1000))

(* Apply [ops] to both pools, checking each answer and that the pool's
   generation moves exactly when an item is fresh or hardened. *)
let replay pool model ops =
  List.for_all
    (fun op ->
      let g0 = G.Mempool.generation pool in
      let agrees, changed =
        match op with
        | Op_prop id ->
            let p = prop id in
            let a = G.Mempool.add_proposal pool p in
            (a = Model.add_proposal model p, a = `Fresh)
        | Op_vote v ->
            let a = G.Mempool.add_vote pool v in
            (a = Model.add_vote model v, a <> `Stale)
      in
      agrees && G.Mempool.generation pool <> g0 = changed)
    ops

let prop_mempool_matches_model =
  QCheck.Test.make ~name:"mempool matches a naive list model" ~count:300
    arb_mempool_run (fun (ops, k, seed) ->
      let pool = G.Mempool.create () and model = Model.create () in
      G.Mempool.with_lock pool (fun () ->
          let replayed = replay pool model ops in
          let keys = Model.keys model in
          (* the remote holds every (k+2)th key dropped, plus one we lack *)
          let remote_keys =
            List.filteri (fun i _ -> i mod (k + 2) <> 0) keys
            @ [ "V:nope:9:P" ]
          in
          let ids = [ "a"; "b"; "c"; "z" ] in
          replayed
          && List.for_all
               (fun prop ->
                 G.Mempool.tally pool ~prop = Model.tally model ~prop
                 && G.Mempool.votes pool ~prop = Model.votes model ~prop)
               ids
          && G.Mempool.proposals pool = model.Model.props
          && G.Mempool.keys pool = keys
          && G.Mempool.missing_from pool ~remote_keys
             = Model.missing_from model ~remote_keys
          && G.Mempool.wanted pool ~remote_keys
             = List.filter (fun k -> not (List.mem k keys)) remote_keys
          && G.Mempool.size pool = Model.size model
          &&
          (* a second pool fed a shuffled, maybe shortened copy: the sync
             check must agree with comparing the model's key sets *)
          let rng = Random.State.make [| seed |] in
          let shuffled =
            List.map (fun op -> (Random.State.bits rng, op)) ops
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.map snd
            |> List.filteri (fun i _ -> i < List.length ops - (seed mod 3))
          in
          let pool2 = G.Mempool.create () and model2 = Model.create () in
          G.Mempool.with_lock pool2 (fun () ->
              replay pool2 model2 shuffled
              && G.Mempool.same_items pool pool2
                 = Model.same_items model model2
              && G.Mempool.same_items pool2 pool
                 = Model.same_items model2 model)))

(* --- wire codec --------------------------------------------------------- *)

let test_wire_roundtrip () =
  let check_rt m =
    match G.Wire.decode (G.Wire.encode m) with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok m' ->
        Alcotest.(check string) "round-trips" (G.Wire.encode m)
          (G.Wire.encode m')
  in
  check_rt (G.Wire.Prop (prop ~epoch:3 ~origin:17 "deadbeef"));
  check_rt
    (G.Wire.Vote
       (vote ~voter:42 ~stance:G.Mempool.Con
          ~why:"trip:app-errors 5% over budget" "deadbeef"));
  check_rt
    (G.Wire.Digest
       { d_sender = 3; d_epoch = 1; d_keys = [ "P:a"; "V:a:1:P"; "V:a:2:C" ] });
  check_rt (G.Wire.Digest { d_sender = 0; d_epoch = 0; d_keys = [] });
  check_rt (G.Wire.Want [ "P:a" ]);
  check_rt G.Wire.Bye;
  (* the escaped why survives with its spaces *)
  (match G.Wire.decode (G.Wire.encode (G.Wire.Vote (vote ~voter:1 ~why:"a b %c" "x"))) with
  | Ok (G.Wire.Vote v) ->
      Alcotest.(check string) "why unescaped" "a b %c" v.G.Mempool.v_why
  | _ -> Alcotest.fail "vote did not round-trip");
  match G.Wire.decode "FROB x y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"

(* --- quorum apply ------------------------------------------------------- *)

let test_quorum_apply_and_convergence () =
  let fleet = boot_fleet ~size:4 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = G.Gossip.run g ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "converged" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "on epoch 1" (Some 1) r.G.Gossip.gr_epoch;
  Alcotest.(check int) "all four applied" 4 r.G.Gossip.gr_applied;
  Alcotest.(check (option string)) "uniform on the new version"
    (Some "5.1.2")
    (F.Fleet.uniform_version fleet);
  (* quorum means at least ceil(0.51 * 4) = 3 Pro votes at every node *)
  Array.iter
    (fun id ->
      let pool = G.Node.pool (G.Gossip.node g id) in
      let pro, _, _ =
        G.Mempool.with_lock pool (fun () ->
            match G.Mempool.proposals pool with
            | [ p ] -> G.Mempool.tally pool ~prop:p.G.Mempool.p_id
            | _ -> Alcotest.fail "expected exactly one proposal")
      in
      Alcotest.(check bool) "apply quorum seen locally" true (pro >= 3))
    [| 0; 1; 2; 3 |]

(* A node refuses a proposal that does not start from its own version:
   the Con vote spreads, but quorum still forms among the others. *)
let test_quorum_counts_only_pro () =
  let fleet = boot_fleet ~size:3 () in
  let g =
    G.Gossip.create
      ~params:{ test_params with G.Gossip.g_quorum = 1.0 }
      ~fleet ()
  in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  (* with q = 1.0 every node must vote Pro before anyone applies; run a
     few rounds and check nobody jumped early *)
  for _ = 1 to 40 do
    G.Gossip.step g
  done;
  let any_applied =
    List.exists
      (fun id -> G.Node.epoch (G.Gossip.node g id) > 0)
      [ 0; 1; 2 ]
  in
  let pools_agree =
    List.for_all
      (fun id ->
        let pool = G.Node.pool (G.Gossip.node g id) in
        G.Mempool.with_lock pool (fun () ->
            List.length (G.Mempool.proposals pool) = 1))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "proposal reached every pool" true pools_agree;
  ignore any_applied;
  let rounds = G.Gossip.run g ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "unanimous quorum converges" true
    r.G.Gossip.gr_converged;
  Alcotest.(check int) "all applied" 3 r.G.Gossip.gr_applied

(* --- guard trip -> fence quorum -> inverse wave ------------------------- *)

let test_guard_trip_quorum_revert () =
  let fleet = boot_fleet ~size:4 ~version:"5.1.10" () in
  (* app traffic so the bad version's 404s feed the guard budgets *)
  ignore (F.Fleet.attach_load ~concurrency:6 fleet);
  F.Fleet.run fleet ~rounds:100;
  let params =
    { test_params with G.Gossip.g_guard = Some (J.Guard.config ()) }
  in
  let g = G.Gossip.create ~params ~fleet () in
  ignore (G.Gossip.propose g ~origin:1 ~to_version:A.Miniweb.bad_update);
  let rounds = G.Gossip.run g ~max_rounds:8_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "a guard tripped somewhere" true
    (r.G.Gossip.gr_guard_trips > 0);
  Alcotest.(check bool) "the fence was enforced" true r.G.Gossip.gr_fenced;
  Alcotest.(check bool) "fleet converged" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "back on the old epoch" (Some 0)
    r.G.Gossip.gr_epoch;
  Alcotest.(check (option string)) "back on the old version" (Some "5.1.10")
    (F.Fleet.uniform_version fleet);
  Alcotest.(check int) "no dropped connections" 0
    (F.Fleet.dropped_in_flight fleet)

(* --- backoff and retry ---------------------------------------------------- *)

(* One injected transformer fault: the node that draws it aborts cleanly,
   serves the old version through its backoff, retries on its own and
   lands with the rest — every VM applies exactly once. *)
let test_abort_backs_off_and_retries () =
  let fleet = boot_fleet ~size:4 () in
  let plan =
    match Faults.parse ~seed:42 "updater.transform=raise x1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  F.Fleet.set_faults fleet (Some plan);
  let g = G.Gossip.create ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = G.Gossip.run g ~max_rounds:3_000 () in
  let r = G.Gossip.report g ~rounds in
  let counter name (i : F.Instance.t) =
    Jv_obs.Obs.counter_value (Jv_vm.Vm.obs i.F.Instance.i_vm) name
  in
  let insts = F.Fleet.instances fleet in
  Alcotest.(check int) "the plan fired once" 1 (Faults.fired plan);
  Alcotest.(check int) "exactly one VM aborted once" 1
    (List.length
       (List.filter (fun i -> counter "core.update.aborted" i = 1) insts));
  Alcotest.(check (list int)) "every VM applied once" [ 1; 1; 1; 1 ]
    (List.map (counter "core.update.applied") insts);
  Alcotest.(check bool) "converged" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "on epoch 1" (Some 1) r.G.Gossip.gr_epoch;
  Alcotest.(check (list int)) "nothing stuck" [] r.G.Gossip.gr_stuck;
  Alcotest.(check (option string)) "uniform on the new version"
    (Some "5.1.2")
    (F.Fleet.uniform_version fleet)

(* --- properties --------------------------------------------------------- *)

(* One full decentralized rollout under a random chaos schedule on the
   control net; returns (report, per-node epochs). *)
let run_under_chaos ~seed ~plan ~size ~rounds_budget =
  let fleet = boot_fleet ~size () in
  let chaos =
    match Faults.parse ~seed plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan %S: %s" plan e
  in
  let g = G.Gossip.create ~chaos ~params:test_params ~fleet () in
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  let rounds = G.Gossip.run g ~max_rounds:rounds_budget () in
  let r = G.Gossip.report g ~rounds in
  let epochs =
    List.init size (fun id -> G.Node.epoch (G.Gossip.node g id))
  in
  (r, epochs)

(* Convergence: under random drop/delay/partition-then-heal schedules the
   fleet still reaches one epoch — never left permanently mixed. *)
let prop_convergence_under_chaos =
  QCheck.Test.make ~name:"gossip converges under drop/delay/partition chaos"
    ~count:6
    QCheck.(
      triple (int_range 1 1_000) (int_range 0 2) (int_range 2 10))
    (fun (seed, kind, pct) ->
      let plan =
        match kind with
        | 0 -> Printf.sprintf "net.link=drop@0.%02d" pct
        | 1 -> Printf.sprintf "net.link=delay:2@0.%02d" pct
        | _ ->
            Printf.sprintf
              "simnet.partition=delay:40@0.%02d x2,net.link=drop@0.05" pct
      in
      let r, epochs = run_under_chaos ~seed ~plan ~size:3 ~rounds_budget:6_000 in
      if not r.G.Gossip.gr_converged then
        QCheck.Test.fail_reportf
          "not converged under %s (seed %d): epochs %s after %d rounds" plan
          seed
          (String.concat "," (List.map string_of_int epochs))
          r.G.Gossip.gr_rounds
      else
        List.for_all (fun e -> e = List.hd epochs) epochs)

(* Determinism: a fixed (plan, seed) pair replays the same rollout —
   same rounds, same pushes, same bytes, same epochs. *)
let prop_seed_determinism =
  QCheck.Test.make ~name:"fixed seed replays the rollout byte-identically"
    ~count:4
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let plan = "net.link=drop@0.05,simnet.partition=delay:30@0.01 x1" in
      let run () = run_under_chaos ~seed ~plan ~size:3 ~rounds_budget:6_000 in
      let r1, e1 = run () in
      let r2, e2 = run () in
      let fp (r : G.Gossip.report) =
        ( r.G.Gossip.gr_rounds,
          r.G.Gossip.gr_pushes,
          r.G.Gossip.gr_rumor_bytes,
          r.G.Gossip.gr_digest_recons,
          r.G.Gossip.gr_votes_seen )
      in
      if fp r1 <> fp r2 || e1 <> e2 then
        QCheck.Test.fail_reportf
          "seed %d diverged: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)" seed
          r1.G.Gossip.gr_rounds r1.G.Gossip.gr_pushes
          r1.G.Gossip.gr_rumor_bytes r1.G.Gossip.gr_digest_recons
          r1.G.Gossip.gr_votes_seen r2.G.Gossip.gr_rounds
          r2.G.Gossip.gr_pushes r2.G.Gossip.gr_rumor_bytes
          r2.G.Gossip.gr_digest_recons r2.G.Gossip.gr_votes_seen
      else true)

(* --- partition then heal (directed) ------------------------------------- *)

let test_partition_heals_and_converges () =
  let fleet = boot_fleet ~size:4 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  (* cut nodes {0,1} off from {2,3} before proposing at 0 *)
  let net = g.G.Gossip.net in
  Jv_simnet.Simnet.set_partition net
    ~groups:
      [
        [ G.Gossip.default_base_port; G.Gossip.default_base_port + 1 ];
        [ G.Gossip.default_base_port + 2; G.Gossip.default_base_port + 3 ];
      ];
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  (* quorum is 3 of 4: the island of two can never apply *)
  for _ = 1 to 300 do
    G.Gossip.step g
  done;
  Alcotest.(check bool) "no apply across the partition" true
    (List.for_all
       (fun id -> G.Node.epoch (G.Gossip.node g id) = 0)
       [ 0; 1; 2; 3 ]);
  Jv_simnet.Simnet.heal net;
  let rounds = G.Gossip.run g ~max_rounds:4_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check bool) "converged after heal" true r.G.Gossip.gr_converged;
  Alcotest.(check (option int)) "on the new epoch" (Some 1)
    r.G.Gossip.gr_epoch;
  Alcotest.(check bool) "anti-entropy did real work" true
    (r.G.Gossip.gr_digest_recons > 0)

(* The quiet check trusts a cached sync answer only while no pool has
   changed.  An idle fleet is quiet (every pool empty); once a proposal
   reaches only one side of a partition, the fleet is settled on epoch 0
   with its rumors expired, yet its pools differ — digests must keep
   flowing so the heal pulls the other side in. *)
let test_quiet_recheck_after_pools_change () =
  let fleet = boot_fleet ~size:4 () in
  let g = G.Gossip.create ~params:test_params ~fleet () in
  for _ = 1 to 20 do
    G.Gossip.step g
  done;
  let net = g.G.Gossip.net in
  let port id = G.Gossip.default_base_port + id in
  Jv_simnet.Simnet.set_partition net
    ~groups:[ [ port 0; port 1 ]; [ port 2; port 3 ] ];
  ignore (G.Gossip.propose g ~origin:0 ~to_version:"5.1.2");
  for _ = 1 to 100 do
    G.Gossip.step g
  done;
  (* every digest that crosses the partition is refused *)
  let refused () =
    Jv_obs.Obs.counter_value (F.Fleet.obs fleet) "gossip.digest_refused"
  in
  let before = refused () in
  for _ = 1 to 40 do
    G.Gossip.step g
  done;
  Alcotest.(check bool) "settled fleet with unequal pools keeps digesting"
    true
    (refused () > before);
  Jv_simnet.Simnet.heal net;
  let rounds = G.Gossip.run g ~max_rounds:4_000 () in
  let r = G.Gossip.report g ~rounds in
  Alcotest.(check (option int)) "converged on the new epoch" (Some 1)
    r.G.Gossip.gr_epoch

let suite =
  [
    Alcotest.test_case "mempool: dedup of proposals and votes" `Quick
      test_mempool_dedup;
    Alcotest.test_case "mempool: con-sticky vote replacement" `Quick
      test_mempool_con_sticky;
    Alcotest.test_case "mempool: lock discipline" `Quick
      test_mempool_lock_discipline;
    QCheck_alcotest.to_alcotest prop_mempool_matches_model;
    Alcotest.test_case "wire: codec round-trips" `Quick test_wire_roundtrip;
    Alcotest.test_case "quorum: fleet applies at ceil(qN) pro votes" `Slow
      test_quorum_apply_and_convergence;
    Alcotest.test_case "quorum: unanimous threshold still converges" `Slow
      test_quorum_counts_only_pro;
    Alcotest.test_case "fence: guard trip reverts the fleet by quorum" `Slow
      test_guard_trip_quorum_revert;
    Alcotest.test_case "retry: a clean abort backs off and lands" `Slow
      test_abort_backs_off_and_retries;
    Alcotest.test_case "partition: no quorum across, converges after heal"
      `Slow test_partition_heals_and_converges;
    Alcotest.test_case "quiet: changed pools are re-compared" `Slow
      test_quiet_recheck_after_pools_change;
    QCheck_alcotest.to_alcotest prop_convergence_under_chaos;
    QCheck_alcotest.to_alcotest prop_seed_determinism;
  ]
