(* Open-loop load against the balancer's front simnet.

   [Driver] is closed-loop: a fixed concurrency, a new request only when
   the previous one answers — so a slow fleet quietly sheds offered load
   and latency numbers flatter the system.  An open-loop generator (in
   the style of httperf's open mode) arrives at a fixed *rate* whether or
   not earlier requests have finished: a fractional credit accumulates
   [rate] arrivals per fleet round and every whole credit opens a fresh
   one-request session immediately.  Queueing then shows up where it
   should — in the latency tail — which is what the rollout SLOs
   (p99 latency, zero dropped connections) are judged against.

   Each arrival opens its own connection, sends one request line, awaits
   one response, closes.  Per-request latency in fleet rounds is pushed
   into the ["fleet.openloop.request_rounds"] histogram on the attached
   sink, so p50/p99 come from the same DDSketch-style metric the rest of
   the bench reports. *)

module Simnet = Jv_simnet.Simnet

type pending = { cid : int; sent_at : int }

type t = {
  net : Simnet.t; (* the balancer's front net *)
  port : int;
  line : string; (* the one request each arrival sends *)
  ok : string -> bool;
  rate : float; (* arrivals per fleet round *)
  obs : Jv_obs.Obs.t option;
  mutable credit : float;
  mutable active : pending list;
  mutable offered : int; (* arrivals generated *)
  mutable served : int; (* responses received *)
  mutable errors : int; (* responses failing [ok] *)
  mutable dropped_in_flight : int; (* EOF while awaiting the response *)
  mutable refused : int; (* connect returned None *)
  mutable latency_rounds : int;
  mutable max_in_flight : int; (* high-water mark, for the report *)
}

let histogram_name = "fleet.openloop.request_rounds"

let create ~net ~port ~line ?(ok = Jv_apps.Workload.default_ok) ~rate ?obs ()
    =
  {
    net;
    port;
    line;
    ok;
    rate;
    obs;
    credit = 0.0;
    active = [];
    offered = 0;
    served = 0;
    errors = 0;
    dropped_in_flight = 0;
    refused = 0;
    latency_rounds = 0;
    max_in_flight = 0;
  }

let close_conn t (p : pending) =
  Simnet.client_close t.net ~conn_id:p.cid;
  Simnet.reap t.net ~conn_id:p.cid

let pump_conn t ~tick (p : pending) : bool (* keep? *) =
  match Simnet.client_recv t.net ~conn_id:p.cid with
  | `Wait -> true
  | `Eof ->
      t.dropped_in_flight <- t.dropped_in_flight + 1;
      close_conn t p;
      false
  | `Line resp ->
      t.served <- t.served + 1;
      let d = tick - p.sent_at in
      t.latency_rounds <- t.latency_rounds + d;
      (match t.obs with
      | Some o -> Jv_obs.Obs.observe_int o histogram_name d
      | None -> ());
      if not (t.ok resp) then t.errors <- t.errors + 1;
      close_conn t p;
      false

let launch t ~tick =
  t.offered <- t.offered + 1;
  match Simnet.connect t.net ~port:t.port with
  | None -> t.refused <- t.refused + 1
  | Some cid ->
      Simnet.client_send t.net ~conn_id:cid t.line;
      t.active <- { cid; sent_at = tick } :: t.active

let step t ~tick =
  t.active <- List.filter (pump_conn t ~tick) t.active;
  t.credit <- t.credit +. t.rate;
  while t.credit >= 1.0 do
    t.credit <- t.credit -. 1.0;
    launch t ~tick
  done;
  let n = List.length t.active in
  if n > t.max_in_flight then t.max_in_flight <- n

(* Let the tail drain after the arrival process stops (end of a bench
   run): pump without generating until quiet or [patience] rounds pass.
   Returns the number of rounds spent draining. *)
let drain t ~tick ~round ~patience =
  let tick0 = tick in
  let rec go tick spent =
    t.active <- List.filter (pump_conn t ~tick) t.active;
    if t.active = [] || spent >= patience then spent
    else begin
      round ();
      go (tick + 1) (spent + 1)
    end
  in
  go tick0 0

let in_flight t = List.length t.active
let offered t = t.offered
let served t = t.served
let errors t = t.errors
let dropped_in_flight t = t.dropped_in_flight
let refused t = t.refused
let max_in_flight t = t.max_in_flight

let mean_latency_rounds t =
  if t.served = 0 then 0.0
  else float_of_int t.latency_rounds /. float_of_int t.served

(* Quantile over everything this driver observed, from the sink's
   histogram (0.0 when no sink or nothing served). *)
let latency_quantile t q =
  match t.obs with
  | None -> 0.0
  | Some o -> (
      match Jv_obs.Obs.find_histogram o histogram_name with
      | None -> 0.0
      | Some h -> Jv_obs.Metrics.quantile h q)
