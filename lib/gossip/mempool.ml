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

   Inserts, lookups and tallies cost O(1), not O(pool), and a digest
   answer one pass over the two key lists: the pool keeps a running
   (pro, con, trip) tally per proposal id (orphan votes included), each
   vote's digest key computed when it is stored, an insertion-order
   array of votes, a hash set of held keys, and a generation counter
   bumped on every change, so callers can skip re-reading a pool that
   has not moved.

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

(* A growable array, filled in insertion order. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

(* The [Some] images of the items, in insertion order. *)
let filter_map f v =
  let acc = ref [] in
  for i = v.len - 1 downto 0 do
    match f v.items.(i) with Some y -> acc := y :: !acc | None -> ()
  done;
  !acc

(* Stable keys naming every item a pool holds, so two pools that saw the
   same items in the same order produce the same digest.  A vote's key
   carries its stance: a hardened Pro -> Con vote is a different item than
   the Pro it replaced, and reconciliation must move it. *)
let proposal_key p = "P:" ^ p.p_id

let vote_key v =
  Printf.sprintf "V:%s:%d:%s" v.v_prop v.v_voter
    (match v.v_stance with Pro -> "P" | Con -> "C")

(* One (proposal, voter) slot: its current vote and that vote's key. *)
type slot = { mutable s_vote : vote; mutable s_key : string }

type tally = { mutable pro : int; mutable con : int; mutable trip : int }

type t = {
  mutable locked : bool;
  mutable generation : int; (* bumped by every Fresh or Hardened item *)
  proposals : proposal vec; (* insertion order *)
  by_id : (string, proposal) Hashtbl.t;
  slots : (string * int, slot) Hashtbl.t; (* (proposal, voter) *)
  order : slot vec; (* votes in insertion order *)
  tallies : (string, tally) Hashtbl.t; (* per proposal id, orphans too *)
  held : (string, unit) Hashtbl.t; (* every key [keys] lists *)
}

let create () =
  {
    locked = false;
    generation = 0;
    proposals = vec ();
    by_id = Hashtbl.create 8;
    slots = Hashtbl.create 32;
    order = vec ();
    tallies = Hashtbl.create 8;
    held = Hashtbl.create 64;
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
    push t.proposals p;
    Hashtbl.replace t.held (proposal_key p) ();
    t.generation <- t.generation + 1;
    `Fresh
  end

let tally_of t prop =
  match Hashtbl.find_opt t.tallies prop with
  | Some c -> c
  | None ->
      let c = { pro = 0; con = 0; trip = 0 } in
      Hashtbl.replace t.tallies prop c;
      c

let count c v =
  match v.v_stance with
  | Pro -> c.pro <- c.pro + 1
  | Con ->
      c.con <- c.con + 1;
      if is_trip_vote v then c.trip <- c.trip + 1

(* A vote need not find its proposal first — gossip reorders freely —
   so orphan votes are kept and counted once the proposal arrives. *)
let add_vote t v : [ `Fresh | `Hardened | `Stale ] =
  require_lock t;
  let key = (v.v_prop, v.v_voter) in
  match Hashtbl.find_opt t.slots key with
  | None ->
      let s = { s_vote = v; s_key = vote_key v } in
      Hashtbl.replace t.slots key s;
      push t.order s;
      Hashtbl.replace t.held s.s_key ();
      count (tally_of t v.v_prop) v;
      t.generation <- t.generation + 1;
      `Fresh
  | Some s -> (
      match (s.s_vote.v_stance, v.v_stance) with
      | Pro, Con ->
          let c = tally_of t v.v_prop in
          c.pro <- c.pro - 1;
          count c v;
          Hashtbl.remove t.held s.s_key;
          s.s_vote <- v;
          s.s_key <- vote_key v;
          Hashtbl.replace t.held s.s_key ();
          t.generation <- t.generation + 1;
          `Hardened
      | _ -> `Stale (* same stance, or Pro after Con: con-sticky *))

(* --- reads (lock required) --------------------------------------------- *)

let find t id =
  require_lock t;
  Hashtbl.find_opt t.by_id id

let proposals t =
  require_lock t;
  filter_map Option.some t.proposals

let vote_for t ~prop ~voter =
  require_lock t;
  Option.map (fun s -> s.s_vote) (Hashtbl.find_opt t.slots (prop, voter))

let votes t ~prop =
  require_lock t;
  filter_map
    (fun s -> if s.s_vote.v_prop = prop then Some s.s_vote else None)
    t.order

(* (pro, con, trip) tallies for one proposal. *)
let tally t ~prop =
  require_lock t;
  match Hashtbl.find_opt t.tallies prop with
  | None -> (0, 0, 0)
  | Some c -> (c.pro, c.con, c.trip)

let size t =
  require_lock t;
  t.proposals.len + t.order.len

(* Changes whenever the pool's contents do: equal generations of one pool
   mean equal contents. *)
let generation t =
  require_lock t;
  t.generation

(* --- anti-entropy digests ---------------------------------------------- *)

(* Every item's key: proposals in insertion order, then votes in
   insertion order. *)
let keys t =
  require_lock t;
  let np = t.proposals.len in
  List.init (np + t.order.len) (fun i ->
      if i < np then proposal_key t.proposals.items.(i)
      else t.order.items.(i - np).s_key)

(* Items of [t] whose keys the remote digest lacks (what we should push
   back during reconciliation). *)
let missing_from t ~remote_keys =
  require_lock t;
  let remote = Hashtbl.create (List.length remote_keys) in
  List.iter (fun k -> Hashtbl.replace remote k ()) remote_keys;
  let lacks k = not (Hashtbl.mem remote k) in
  ( filter_map
      (fun p -> if lacks (proposal_key p) then Some p else None)
      t.proposals,
    filter_map (fun s -> if lacks s.s_key then Some s.s_vote else None) t.order
  )

(* The remote keys this pool lacks (what to ask for with WANT), in the
   remote's order. *)
let wanted t ~remote_keys =
  require_lock t;
  List.filter (fun k -> not (Hashtbl.mem t.held k)) remote_keys

(* Both pools hold exactly the same items (both locks required). *)
let same_items a b =
  require_lock a;
  require_lock b;
  Hashtbl.length a.held = Hashtbl.length b.held
  &&
  try
    Hashtbl.iter
      (fun k () -> if not (Hashtbl.mem a.held k) then raise_notrace Exit)
      b.held;
    true
  with Exit -> false
