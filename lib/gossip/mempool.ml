(* The per-instance update mempool: every node's local view of the
   update proposals and health votes circulating in the fleet, in the
   shape of cardano-sl's update-system MemState — one shared pool,
   accessed only under its lock, deduplicating everything so gossip can
   re-deliver items any number of times.

   Two item kinds live here:

   - a {e proposal}: one requested epoch transition (spec digest, from-
     and to-version, proposed epoch, originating node);
   - a {e vote}: one node's signed stance on one proposal.  [Pro] votes
     feed the apply quorum; [Con] votes whose reason carries the
     ["trip:"] prefix are guard-trip verdicts and feed the fence quorum.

   Votes are keyed (proposal, voter) and {e con-sticky}: a voter may
   harden Pro -> Con (its guard tripped after it voted to apply) but a
   later Pro never overwrites a Con — a node that saw its guard trip
   must not be talked back into applying by a re-delivered stale vote.

   The lock is deliberately crude — a boolean plus [Not_locked] on every
   access outside [with_lock], non-reentrant — because what it checks is
   the discipline, not mutual exclusion: the simulation is single-
   threaded, but every code path must still tolerate the discipline a
   real concurrent pool would impose. *)

type proposal = {
  p_id : string; (* content id: digest of (epoch, versions, spec digest) *)
  p_epoch : int; (* the epoch this proposal advances the fleet to *)
  p_from_version : string;
  p_to_version : string;
  p_digest : string; (* digest of the new version's program source *)
  p_origin : int; (* proposing node *)
}

type stance = Pro | Con

type vote = {
  v_prop : string; (* proposal id *)
  v_voter : int;
  v_stance : stance;
  v_why : string; (* "trip:<verdict>" marks a guard-trip verdict *)
}

exception Not_locked

let trip_prefix = "trip:"

let is_trip_vote v =
  v.v_stance = Con
  && String.length v.v_why >= String.length trip_prefix
  && String.sub v.v_why 0 (String.length trip_prefix) = trip_prefix

let proposal_id ~epoch ~from_version ~to_version ~digest =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%s|%s" epoch from_version to_version digest))

type t = {
  mutable locked : bool;
  mutable proposals : proposal list; (* insertion order, newest last *)
  by_id : (string, proposal) Hashtbl.t;
  votes : (string * int, vote) Hashtbl.t; (* (proposal, voter) *)
  mutable vote_keys : (string * int) list; (* insertion order *)
}

let create () =
  {
    locked = false;
    proposals = [];
    by_id = Hashtbl.create 8;
    votes = Hashtbl.create 32;
    vote_keys = [];
  }

let with_lock t f =
  if t.locked then invalid_arg "Mempool.with_lock: non-reentrant";
  t.locked <- true;
  Fun.protect ~finally:(fun () -> t.locked <- false) f

let require_lock t = if not t.locked then raise Not_locked

(* --- mutation (lock required) ------------------------------------------ *)

let add_proposal t p : [ `Fresh | `Duplicate ] =
  require_lock t;
  if Hashtbl.mem t.by_id p.p_id then `Duplicate
  else begin
    Hashtbl.replace t.by_id p.p_id p;
    t.proposals <- t.proposals @ [ p ];
    `Fresh
  end

(* A vote need not find its proposal first — gossip reorders freely —
   so orphan votes are kept and counted once the proposal arrives. *)
let add_vote t v : [ `Fresh | `Hardened | `Stale ] =
  require_lock t;
  let key = (v.v_prop, v.v_voter) in
  match Hashtbl.find_opt t.votes key with
  | None ->
      Hashtbl.replace t.votes key v;
      t.vote_keys <- t.vote_keys @ [ key ];
      `Fresh
  | Some old -> (
      match (old.v_stance, v.v_stance) with
      | Pro, Con ->
          Hashtbl.replace t.votes key v;
          `Hardened
      | _ -> `Stale (* same stance, or Pro after Con: con-sticky *))

(* --- reads (lock required) --------------------------------------------- *)

let find t id =
  require_lock t;
  Hashtbl.find_opt t.by_id id

let proposals t =
  require_lock t;
  t.proposals

let vote_for t ~prop ~voter =
  require_lock t;
  Hashtbl.find_opt t.votes (prop, voter)

let votes t ~prop =
  require_lock t;
  List.filter_map
    (fun ((p, _) as key) ->
      if p = prop then Hashtbl.find_opt t.votes key else None)
    t.vote_keys

(* (pro, con, trip) tallies for one proposal. *)
let tally t ~prop =
  let vs = votes t ~prop in
  List.fold_left
    (fun (pro, con, trip) v ->
      match v.v_stance with
      | Pro -> (pro + 1, con, trip)
      | Con -> (pro, con + 1, if is_trip_vote v then trip + 1 else trip))
    (0, 0, 0) vs

(* --- anti-entropy digests ---------------------------------------------- *)

(* Stable keys naming every item this pool holds, in insertion order, so
   two pools that saw the same items in the same order produce the same
   digest.  A vote's key carries its stance: a hardened Pro -> Con vote
   is a different item than the Pro it replaced, and reconciliation must
   move it. *)
let vote_key v =
  Printf.sprintf "V:%s:%d:%s" v.v_prop v.v_voter
    (match v.v_stance with Pro -> "P" | Con -> "C")

let keys t =
  require_lock t;
  List.map (fun p -> "P:" ^ p.p_id) t.proposals
  @ List.filter_map
      (fun key -> Option.map vote_key (Hashtbl.find_opt t.votes key))
      t.vote_keys

(* Items of [t] whose keys the remote digest lacks (what we should push
   back during reconciliation). *)
let missing_from t ~remote_keys =
  require_lock t;
  let remote = Hashtbl.create (List.length remote_keys) in
  List.iter (fun k -> Hashtbl.replace remote k ()) remote_keys;
  let props =
    List.filter (fun p -> not (Hashtbl.mem remote ("P:" ^ p.p_id))) t.proposals
  in
  let vs =
    List.filter_map
      (fun key ->
        match Hashtbl.find_opt t.votes key with
        | None -> None
        | Some v -> if Hashtbl.mem remote (vote_key v) then None else Some v)
      t.vote_keys
  in
  (props, vs)

let size t =
  require_lock t;
  List.length t.proposals + List.length t.vote_keys
