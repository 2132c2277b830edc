(* Scripted client load against the load balancer's front simnet — the
   fleet-level analogue of [Jv_apps.Workload], which drives a single
   VM's own network.  Sessions send one line, await one response line,
   and open a fresh connection after completing the script (up to
   [max_sessions]); the fleet pumps every driver once per fleet round.

   [dropped_in_flight] counts sessions severed while a request was
   outstanding — the "dropped connection" number a rollout must keep at
   zero.

   A closed-loop client never sends the next line until the previous one
   is answered, so a request (or response) swallowed by a lossy link
   ([net.link=drop] on an instance net) would wedge the session — and
   its balancer route — forever.  [request_timeout] is the client-side
   recovery: an unanswered request past the budget closes the connection
   (counted in [timed_out_requests], separate from [dropped_in_flight]:
   fault-induced loss is not an update-window sever) and frees the slot
   for a fresh session. *)

module Simnet = Jv_simnet.Simnet

type conn_state = {
  cid : int;
  mutable remaining : string list;
  mutable sent_at : int;
  mutable awaiting : bool;
}

type t = {
  net : Simnet.t; (* the balancer's front net *)
  port : int;
  script : string list;
  ok : string -> bool;
  concurrency : int;
  max_sessions : int;
  request_timeout : int; (* rounds an unanswered request may wait *)
  mutable launched : int;
  mutable active : conn_state list;
  mutable completed_sessions : int;
  mutable completed_requests : int;
  mutable errors : int;
  mutable dropped_in_flight : int;
  mutable severed_sessions : int; (* EOF between requests, script unfinished *)
  mutable timed_out_requests : int; (* gave up waiting (lossy link) *)
  mutable latency_rounds : int;
}

let default_request_timeout = 200

let create ~net ~port ~script ?(ok = Jv_apps.Workload.default_ok)
    ~concurrency ?(max_sessions = max_int)
    ?(request_timeout = default_request_timeout) () =
  {
    net;
    port;
    script;
    ok;
    concurrency;
    max_sessions;
    request_timeout;
    launched = 0;
    active = [];
    completed_sessions = 0;
    completed_requests = 0;
    errors = 0;
    dropped_in_flight = 0;
    severed_sessions = 0;
    timed_out_requests = 0;
    latency_rounds = 0;
  }

let close_conn t (c : conn_state) =
  Simnet.client_close t.net ~conn_id:c.cid;
  Simnet.reap t.net ~conn_id:c.cid

let pump_conn t ~tick (c : conn_state) : bool (* keep? *) =
  if not c.awaiting then true
  else
    match Simnet.client_recv t.net ~conn_id:c.cid with
    | `Wait ->
        if tick - c.sent_at > t.request_timeout then begin
          (* the request or its response was lost in transit: close, so
             the balancer reaps the wedged route, and move on *)
          t.timed_out_requests <- t.timed_out_requests + 1;
          close_conn t c;
          false
        end
        else true
    | `Eof ->
        (* active sessions always have a request outstanding (the next
           line is sent as soon as a response arrives), so EOF here is a
           sever mid-request *)
        t.dropped_in_flight <- t.dropped_in_flight + 1;
        if c.remaining <> [] then
          t.severed_sessions <- t.severed_sessions + 1;
        close_conn t c;
        false
    | `Line resp -> (
        c.awaiting <- false;
        t.completed_requests <- t.completed_requests + 1;
        t.latency_rounds <- t.latency_rounds + (tick - c.sent_at);
        if not (t.ok resp) then t.errors <- t.errors + 1;
        match c.remaining with
        | [] ->
            close_conn t c;
            t.completed_sessions <- t.completed_sessions + 1;
            false
        | line :: rest ->
            Simnet.client_send t.net ~conn_id:c.cid line;
            c.remaining <- rest;
            c.sent_at <- tick;
            c.awaiting <- true;
            true)

let launch t ~tick =
  if t.launched < t.max_sessions && List.length t.active < t.concurrency
  then
    match Simnet.connect t.net ~port:t.port with
    | None -> ()
    | Some cid -> (
        t.launched <- t.launched + 1;
        match t.script with
        | [] -> Simnet.client_close t.net ~conn_id:cid
        | line :: rest ->
            Simnet.client_send t.net ~conn_id:cid line;
            t.active <-
              { cid; remaining = rest; sent_at = tick; awaiting = true }
              :: t.active)

let step t ~tick =
  t.active <- List.filter (pump_conn t ~tick) t.active;
  (* staggered arrivals: at most one new session per round, like httperf *)
  if List.length t.active < t.concurrency then launch t ~tick

(* Close whatever is still open (end of an experiment). *)
let detach t =
  List.iter (close_conn t) t.active;
  t.active <- []
