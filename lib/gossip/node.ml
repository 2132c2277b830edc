(* One gossip participant: the decision loop that PR 5's orchestrator
   used to run centrally, re-homed onto each instance.  A node owns its
   instance's mempool and decides {e locally, from gossip alone} when to
   drain, when to apply, and when to revert:

   - it votes on every proposal it first learns (Pro when the proposal
     advances its own epoch from its own version, Con otherwise);
   - it applies a proposal only once its mempool holds the apply quorum
     of Pro votes — drain (stop admitting, wait for in-flight), then a
     guarded DSU through the shared per-instance arc ([Lifecycle]);
   - a guard trip auto-reverts in-VM (the PR 5 machinery) and the node
     then broadcasts the verdict as a ["trip:"]-prefixed Con vote;
   - trip votes reaching the {e fence} quorum condemn the proposal
     everywhere: appliers force-trip their open guard (or apply the
     inverse spec if the window already closed) and non-appliers refuse
     the proposal forever — the peer-to-peer inverse wave, with no
     central coordinator anywhere.

   Epoch bookkeeping makes convergence checkable: applying proposal P
   sets the node's epoch to [P.p_epoch]; a fence revert sets it to
   [P.p_epoch - 1]; nodes that never applied stay put — so a fenced
   rollout converges with every live node back on the old epoch. *)

module J = Jvolve_core
module Lifecycle = Jv_fleet.Lifecycle
module Instance = Jv_fleet.Instance

type config = {
  nc_quorum : int; (* Pro votes required to apply (self included) *)
  nc_fence : int; (* trip votes required to condemn a proposal *)
  nc_life : Lifecycle.config; (* drain, update, retry and guard settings *)
}

type phase =
  | Idle
  | Draining of { prop : Mempool.proposal; until : int }
  | Updating of { prop : Mempool.proposal; op : Lifecycle.op }
  | Guarded of { prop : Mempool.proposal; op : Lifecycle.op }
  | Reverting of { prop : Mempool.proposal; op : Lifecycle.op }
  | Backoff of { prop : Mempool.proposal; until : int }
  | Stuck of string

type t = {
  n_id : int;
  n_life : Lifecycle.t; (* this instance's update arc *)
  n_pool : Mempool.t;
  n_cfg : config;
  n_on_epoch : int -> int -> unit; (* old -> new, for fleet tallies *)
  n_obs : Jv_obs.Obs.t; (* the instance VM's own sink *)
  mutable n_epoch : int;
  mutable n_phase : phase;
  mutable n_applied : (Mempool.proposal * Lifecycle.op) option;
      (* the live forward update *)
  mutable n_fenced : string list; (* condemned proposal ids *)
  mutable n_attempts : (string * int) list; (* per-proposal aborts *)
  mutable n_out : Wire.msg list; (* fresh rumors, drained by the runtime *)
}

let epoch_gauge = "gossip.epoch"

let create ?(epoch = 0) ~fleet ~id ~cfg ~on_epoch () =
  let life = Lifecycle.create fleet cfg.nc_life ~id in
  let obs = Jv_vm.Vm.obs (Lifecycle.instance life).Instance.i_vm in
  Jv_obs.Obs.set_gauge obs epoch_gauge (float_of_int epoch);
  {
    n_id = id;
    n_life = life;
    n_pool = Mempool.create ();
    n_cfg = cfg;
    n_on_epoch = on_epoch;
    n_obs = obs;
    n_epoch = epoch;
    n_phase = Idle;
    n_applied = None;
    n_fenced = [];
    n_attempts = [];
    n_out = [];
  }

let epoch t = t.n_epoch
let phase t = t.n_phase
let pool t = t.n_pool
let instance t = Lifecycle.instance t.n_life
let version t = (instance t).Instance.i_version
let live t = match t.n_phase with Stuck _ -> false | _ -> true
let take_out t =
  let out = List.rev t.n_out in
  t.n_out <- [];
  out

let set_epoch t e =
  if e <> t.n_epoch then begin
    let old = t.n_epoch in
    t.n_epoch <- e;
    Jv_obs.Obs.set_gauge t.n_obs epoch_gauge (float_of_int e);
    t.n_on_epoch old e
  end

(* --- voting (call under the pool lock) --------------------------------- *)

let cast t ~prop ~stance ~why =
  let v =
    { Mempool.v_prop = prop; v_voter = t.n_id; v_stance = stance; v_why = why }
  in
  match Mempool.add_vote t.n_pool v with
  | `Fresh | `Hardened -> t.n_out <- Wire.Vote v :: t.n_out
  | `Stale -> ()

let cast_con t ~prop ~why =
  Mempool.with_lock t.n_pool (fun () ->
      cast t ~prop ~stance:Mempool.Con ~why)

(* --- ingesting gossip --------------------------------------------------- *)

(* Feed one decoded payload into the pool; anything fresh is queued for
   re-broadcast (rumor mongering) and a fresh proposal is voted on
   immediately: Pro iff it advances this node's own epoch starting from
   the version it actually runs. *)
let learn t msg =
  Mempool.with_lock t.n_pool (fun () ->
      match msg with
      | Wire.Prop p -> (
          match Mempool.add_proposal t.n_pool p with
          | `Duplicate -> ()
          | `Fresh ->
              t.n_out <- Wire.Prop p :: t.n_out;
              if
                p.Mempool.p_from_version = version t
                && p.Mempool.p_epoch = t.n_epoch + 1
              then cast t ~prop:p.Mempool.p_id ~stance:Mempool.Pro ~why:"ok"
              else
                cast t ~prop:p.Mempool.p_id ~stance:Mempool.Con
                  ~why:
                    (Printf.sprintf "base-mismatch:%s@e%d" (version t)
                       t.n_epoch))
      | Wire.Vote v -> (
          match Mempool.add_vote t.n_pool v with
          | `Fresh | `Hardened ->
              Jv_obs.Obs.incr t.n_obs "gossip.votes_seen";
              t.n_out <- Wire.Vote v :: t.n_out
          | `Stale -> ())
      | Wire.Digest _ | Wire.Want _ | Wire.Bye -> ())

(* --- the per-round decision step ---------------------------------------- *)

let attempts t prop =
  Option.value ~default:0 (List.assoc_opt prop t.n_attempts)

let note_attempt t prop =
  let n = attempts t prop + 1 in
  t.n_attempts <- (prop, n) :: List.remove_assoc prop t.n_attempts;
  n

let fenced t (p : Mempool.proposal) = List.mem p.Mempool.p_id t.n_fenced

let condemn t (p : Mempool.proposal) =
  if not (fenced t p) then t.n_fenced <- p.Mempool.p_id :: t.n_fenced

(* A proposal this node should move on: targets our epoch + version, has
   the apply quorum of Pro votes, and is not condemned. *)
let actionable t =
  Mempool.with_lock t.n_pool (fun () ->
      List.find_opt
        (fun (p : Mempool.proposal) ->
          (not (fenced t p))
          && p.Mempool.p_epoch = t.n_epoch + 1
          && p.Mempool.p_from_version = version t
          && attempts t p.Mempool.p_id <= t.n_cfg.nc_life.Lifecycle.max_retries
          &&
          let pro, _, trip = Mempool.tally t.n_pool ~prop:p.Mempool.p_id in
          pro >= t.n_cfg.nc_quorum && trip < t.n_cfg.nc_fence)
        (Mempool.proposals t.n_pool))

(* Proposals whose trip votes reached the fence quorum since we last
   looked: condemn them locally. *)
let newly_fenced t =
  Mempool.with_lock t.n_pool (fun () ->
      List.filter
        (fun (p : Mempool.proposal) ->
          (not (fenced t p))
          &&
          let _, _, trip = Mempool.tally t.n_pool ~prop:p.Mempool.p_id in
          trip >= t.n_cfg.nc_fence)
        (Mempool.proposals t.n_pool))

let start_update t (p : Mempool.proposal) =
  let to_version = p.Mempool.p_to_version in
  let op =
    Lifecycle.request t.n_life ~to_version
      (Lifecycle.spec t.n_life ~to_version)
  in
  t.n_applied <- Some (p, op);
  t.n_phase <- Updating { prop = p; op }

(* The guard tripped (budget or force): the VM already reverted itself.
   Publish the verdict as a trip vote and fall back to the old epoch
   ([p_epoch - 1] — a no-op when the trip outran our own apply scan and
   the epoch was never bumped). *)
let guard_reverted t (p : Mempool.proposal) (v : J.Guard.verdict) =
  Jv_obs.Obs.incr t.n_obs "gossip.guard_trips";
  cast_con t ~prop:p.Mempool.p_id
    ~why:(Mempool.trip_prefix ^ J.Guard.verdict_to_string v);
  condemn t p;
  t.n_applied <- None;
  set_epoch t (p.Mempool.p_epoch - 1);
  t.n_phase <- Idle

(* The peer-to-peer inverse wave: this node applied [p] and the fence
   quorum condemned it.  An open guard window reverts in-VM (replaying
   the retained log); a closed one gets the inverse spec, unguarded,
   with the instance out of the LB rotation. *)
let undo t p op =
  if Lifecycle.watching op then begin
    ignore (Lifecycle.revert t.n_life op ~reason:"gossip fence quorum");
    t.n_phase <- Guarded { prop = p; op }
  end
  else begin
    Lifecycle.drain t.n_life;
    let inverse = Lifecycle.revert t.n_life op ~reason:"gossip fence quorum" in
    t.n_phase <- Reverting { prop = p; op = inverse }
  end

(* Fence consequences for the node's own position on [p].  A node
   mid-[Updating] is left alone — its DSU attempt must resolve first,
   and the resolution path re-checks [n_fenced]. *)
let enforce_fence t (p : Mempool.proposal) =
  condemn t p;
  Jv_obs.Obs.incr t.n_obs "gossip.fences_enforced";
  let ours (q : Mempool.proposal) = q.Mempool.p_id = p.Mempool.p_id in
  match t.n_phase with
  | (Draining { prop; _ } | Backoff { prop; _ }) when ours prop ->
      (* never started: stand down and keep serving the old version *)
      Lifecycle.serve t.n_life;
      t.n_phase <- Idle
  | Guarded { prop; op } when ours prop && Lifecycle.watching op ->
      (* a window that already closed is caught at the Guarded step *)
      undo t prop op
  | Idle -> (
      match t.n_applied with
      | Some (prop, op) when ours prop -> undo t prop op
      | _ -> ())
  | _ -> ()

let resolve_update t (p : Mempool.proposal) op ~now = function
  | Lifecycle.Applied ->
      set_epoch t p.Mempool.p_epoch;
      Jv_obs.Obs.incr t.n_obs "gossip.applies";
      (* the fence may have arrived while our attempt was in flight *)
      if fenced t p then undo t p op
      else begin
        Lifecycle.serve t.n_life;
        t.n_phase <-
          (if Lifecycle.watching op then Guarded { prop = p; op } else Idle)
      end
  | Lifecycle.Tripped v ->
      (* tripped before we ever saw the apply: already back on old code *)
      guard_reverted t p v
  | Lifecycle.Clean_abort e ->
      t.n_applied <- None;
      let n = note_attempt t p.Mempool.p_id in
      let life = t.n_cfg.nc_life in
      if n <= life.Lifecycle.max_retries then
        let delay =
          Lifecycle.backoff ~base:life.Lifecycle.backoff_base ~attempt:n
        in
        t.n_phase <- Backoff { prop = p; until = now + delay }
      else begin
        cast_con t ~prop:p.Mempool.p_id ~why:("abort:" ^ e);
        t.n_phase <- Stuck ("retries exhausted: " ^ e)
      end
  | Lifecycle.Lost e ->
      t.n_applied <- None;
      t.n_phase <- Stuck e
  | Lifecycle.Guard_closed | Lifecycle.Healthy _ | Lifecycle.Unhealthy _ -> ()

let drain t p ~now =
  Lifecycle.drain t.n_life;
  t.n_phase <-
    Draining
      { prop = p; until = now + t.n_cfg.nc_life.Lifecycle.drain_timeout }

(* One decision step per fleet round.  A crashed VM can never reach a
   safe point; its pending update, guard window or inverse attempt
   resolves to [Lost] and the node goes Stuck: [note_stuck] then pulls
   it from the epoch tallies and a supervisor restart rebuilds the node
   via [rejoin]. *)
let tick t ~now =
  (* fences first: a condemnation must interrupt whatever we are doing *)
  List.iter (enforce_fence t) (newly_fenced t);
  match t.n_phase with
  | Stuck _ -> ()
  | Idle -> Option.iter (fun p -> drain t p ~now) (actionable t)
  | Draining { prop; until } ->
      if Lifecycle.in_flight t.n_life = 0 || now >= until then
        start_update t prop
  | Updating { prop; op } ->
      Option.iter (resolve_update t prop op ~now) (Lifecycle.step t.n_life op)
  | Guarded { prop; op } -> (
      match Lifecycle.step t.n_life op with
      | Some Lifecycle.Guard_closed ->
          (* the commit is final — unless the fence quorum arrived
             between the close and this scan *)
          if fenced t prop then undo t prop op else t.n_phase <- Idle
      | Some (Lifecycle.Tripped v) -> guard_reverted t prop v
      | Some (Lifecycle.Lost why) ->
          (* a killed VM just wedges; a trip whose in-VM revert rolled
             forward is published as a trip vote: not trusted *)
          t.n_applied <- None;
          if not (Lifecycle.killed t.n_life) then
            cast_con t ~prop:prop.Mempool.p_id ~why:(Mempool.trip_prefix ^ why);
          t.n_phase <- Stuck why
      | _ -> ())
  | Reverting { prop; op } -> (
      match Lifecycle.step t.n_life op with
      | None -> ()
      | Some Lifecycle.Applied ->
          set_epoch t (prop.Mempool.p_epoch - 1);
          t.n_applied <- None;
          Jv_obs.Obs.incr t.n_obs "gossip.reverts";
          Lifecycle.serve t.n_life;
          t.n_phase <- Idle
      | Some _ ->
          (* the inverse update failed: this VM's state is not trusted *)
          Lifecycle.take_out t.n_life;
          t.n_phase <- Stuck "inverse update failed")
  | Backoff { prop; until } -> if now >= until then drain t prop ~now
