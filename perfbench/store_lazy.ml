(* store-lazy: ministore under a host-time open loop, in lazy_update mode.

   A store of [records] records populated straight into the heap (record
   chains and the page directory), served by the app's four workers over
   [conns] persistent pipelined simnet connections.  Requests arrive at a
   fixed [rate] per host second, whether or not earlier ones have been
   answered, and each is timed from the moment it was due.  At fixed
   points of the run the 1.0 -> 1.1 -> 1.2 -> 1.3 schema ladder (custom
   forward transformers, a PageDir class transformer) is applied lazily,
   walked back down by the inverse migrations and up again: records
   migrate through the read barrier and the background sweeper while the
   store serves traffic.  The seed draws the records, the request mix and
   every key and value. *)

module VM = Jv_vm
module J = Jvolve_core
module A = Jv_apps
module M = A.Ministore
module Simnet = Jv_simnet.Simnet

let records = 25_000
(* Requests per host second: about a quarter of the capacity.  At half,
   a host a third slower lengthened every scheduler round by the work of
   the extra requests queued behind it, so a lazy window's host time
   swung about twice as far as the host's speed. *)
let rate = 1000.0
let conns = 4
let setups = 5
let warmup_requests = 2_000
let key_base = 1_000_000
let mput_base = 5_000_000
let mput_count = 4

(* The schema ladder, walked up, back down by the inverse migrations, up
   again and so on: an odd number of passes, so every run ends at 1.3.
   Rung i is requested [rung_spacing] (i + 1) seconds into the measured
   phase, and one second is left for the last window and the tail. *)
let up = [ ("1.0", "1.1"); ("1.1", "1.2"); ("1.2", "1.3") ]
let rung_spacing = 0.4

let passes ~seconds =
  let n = int_of_float ((seconds -. 1.0) /. rung_spacing) / List.length up in
  max 1 (if n mod 2 = 0 then n - 1 else n)

let ladder ~passes =
  List.concat
    (List.init passes (fun k ->
         if k mod 2 = 0 then List.map (fun r -> (r, false)) up
         else List.rev_map (fun r -> (r, true)) up))

(* drain budget after the arrival process stops *)
let grace_s = 5.0

(* --- the seeded store and request mix ----------------------------------- *)

type plan = {
  metas : int array; (* per populated record *)
  vals : string array;
  perm : int array; (* order in which PUTs overwrite populated records *)
}

let key i = key_base + i
let meta_of r = (Random.State.int r 7 * 65536) + Random.State.int r 60_000
let value_of r = Printf.sprintf "r%08x" (Random.State.bits r land 0xfffffff)

let plan ~seed =
  let r = Pb.rng ~seed ~stream:"store.records" in
  let metas = Array.init records (fun _ -> meta_of r) in
  let vals = Array.init records (fun _ -> value_of r) in
  let perm = Array.init records Fun.id in
  for i = records - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  { metas; vals; perm }

type req =
  | Get of int (* record index *)
  | Put of int * int * string (* record index, new meta, new value *)
  | Mput of int * int (* base key, meta *)
  | Scan of int (* page id *)

let line = function
  | Get i -> Printf.sprintf "GET %d" (key i)
  | Put (i, m, v) -> Printf.sprintf "PUT %d %d %s" (key i) m v
  | Mput (base, m) -> Printf.sprintf "MPUT %d %d %d" base mput_count m
  | Scan p -> Printf.sprintf "SCAN %d" p

(* The page directory holds the app's own 40 seed keys (1000..1039) and
   then the populated keys, in append order.  SCAN draws from the pages
   full under both the 16-key (1.0, 1.1) and 8-key (1.2+) layouts. *)
let app_seed_keys = 40
let appended_key g = if g < app_seed_keys then 1000 + g else key (g - app_seed_keys)
let scan_pages = ((app_seed_keys + records) / 16) - 1

(* 80% GET, 10% PUT, 5% MPUT, 5% SCAN; each populated record is PUT at
   most once and each MPUT writes fresh keys, so the final store is a
   function of the seed alone. *)
let generator ?(stream = "store.mix") (p : plan) ~seed =
  let r = Pb.rng ~seed ~stream in
  let puts = ref 0 and mputs = ref 0 in
  fun () ->
    let u = Random.State.int r 100 in
    if u < 80 then Get (Random.State.int r records)
    else if u < 90 && !puts < records then begin
      let i = p.perm.(!puts) in
      incr puts;
      Put (i, meta_of r, value_of r)
    end
    else if u < 95 then begin
      let base = mput_base + (64 * !mputs) in
      incr mputs;
      Mput (base, meta_of r)
    end
    else Scan (Random.State.int r scan_pages)

(* --- direct population --------------------------------------------------- *)

let offsets vm cname fields =
  let cls = VM.Rt.require_class vm.VM.State.reg cname in
  ( cls,
    List.map
      (fun f ->
        match VM.Rt.find_field_info cls f with
        | Some fi -> fi.VM.Rt.fi_offset
        | None -> failwith ("no field " ^ cname ^ "." ^ f))
      fields )

let static_slot vm cname name =
  let cls = VM.Rt.require_class vm.VM.State.reg cname in
  match VM.Rt.find_static_info vm.VM.State.reg cls name with
  | Some si -> si.VM.Rt.si_slot
  | None -> failwith ("no static " ^ cname ^ "." ^ name)

(* Records go into the [Store.buckets] chains and, 16 keys a page, into
   the [PageDir] chain after the 40 seed records the app installs itself
   — the state [records] PUTs would leave, without the wire. *)
let populate vm (p : plan) =
  let heap = vm.VM.State.heap in
  let get_static c n = VM.State.jtoc_get vm (static_slot vm c n) in
  let set_static c n v = VM.State.jtoc_set vm (static_slot vm c n) v in
  let rec_cls, rec_offs = offsets vm "Rec" [ "key"; "meta"; "val"; "next" ] in
  let page_cls, page_offs = offsets vm "Page" [ "id"; "keys"; "n"; "next" ] in
  let o_key, o_meta, o_val, o_next =
    match rec_offs with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let o_pid, o_pkeys, o_pn, o_pnext =
    match page_offs with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let psz = VM.Value.to_int (get_static "PageDir" "pageSize") in
  let set_ref addr off v = VM.Heap.set heap ~addr ~off (VM.Value.of_ref v) in
  let set_int addr off v = VM.Heap.set heap ~addr ~off (VM.Value.of_int v) in
  let get_ref addr off = VM.Value.to_ref (VM.Heap.get heap ~addr ~off) in
  let get_int addr off = VM.Value.to_int (VM.Heap.get heap ~addr ~off) in
  let elem i = VM.Heap.array_header_words + i in
  for i = 0 to records - 1 do
    let v = VM.State.alloc_string vm p.vals.(i) in
    let o = VM.State.alloc_object vm rec_cls in
    set_int o o_key (key i);
    set_int o o_meta p.metas.(i);
    set_ref o o_val v;
    let buckets = VM.Value.to_ref (get_static "Store" "buckets") in
    let nb = VM.Heap.array_length heap buckets in
    let b = key i mod nb in
    VM.Heap.set heap ~addr:o ~off:o_next (VM.Heap.get heap ~addr:buckets ~off:(elem b));
    set_ref buckets (elem b) o;
    (* PageDir.append(key), exactly as the app would *)
    let tail = VM.Value.to_ref (get_static "PageDir" "tail") in
    let tail =
      if tail <> 0 && get_int tail o_pn < psz then tail
      else begin
        let pages = VM.Value.to_int (get_static "PageDir" "pages") in
        let ks = VM.State.alloc_array vm ~len:psz in
        let pg = VM.State.alloc_object vm page_cls in
        set_int pg o_pid pages;
        set_ref pg o_pkeys ks;
        set_int pg o_pn 0;
        set_static "PageDir" "pages" (VM.Value.of_int (pages + 1));
        let old_tail = VM.Value.to_ref (get_static "PageDir" "tail") in
        if old_tail = 0 then set_static "PageDir" "head" (VM.Value.of_ref pg)
        else set_ref old_tail o_pnext pg;
        set_static "PageDir" "tail" (VM.Value.of_ref pg);
        pg
      end
    in
    let n = get_int tail o_pn in
    set_int (get_ref tail o_pkeys) (elem n) (key i);
    set_int tail o_pn (n + 1)
  done;
  let count = VM.Value.to_int (get_static "Store" "count") in
  set_static "Store" "count" (VM.Value.of_int (count + records))

(* --- the open-loop client ------------------------------------------------- *)

(* What a GET may legitimately answer: the record as rewritten by its one
   PUT when that PUT was acknowledged before the GET was sent; otherwise
   the populated record or, once the PUT is on the wire, either (the
   connections race).  Before the PUT is sent only [fresh ()] = old. *)
type expect = New | Either

type inflight = { due : float; rq : req; expect : expect }

type client = {
  net : Simnet.t;
  cids : int array;
  queues : inflight Queue.t array;
  plan : plan;
  put_state : (int, [ `Sent of int * string | `Acked of int * string ]) Hashtbl.t;
  mutable mput_keys : (int * int * string) list;
  mutable sent : int;
  mutable answered : int;
  mutable errors : int;
  mutable latencies : float list; (* ms from due to answered *)
  mutable late : float list; (* ms from due to sent *)
  mutable first_error : string option;
}

let client vm plan =
  let net = VM.Vm.net vm in
  let cids =
    Array.init conns (fun _ ->
        match Simnet.connect net ~port:M.port with
        | Some c -> c
        | None -> failwith "ministore refused a client connection")
  in
  {
    net;
    cids;
    queues = Array.init conns (fun _ -> Queue.create ());
    plan;
    put_state = Hashtbl.create 1024;
    mput_keys = [];
    sent = 0;
    answered = 0;
    errors = 0;
    latencies = [];
    late = [];
    first_error = None;
  }

let outstanding c = c.sent - c.answered

let send c ~due ~now rq =
  let expect =
    match rq with
    | Get i -> (
        match Hashtbl.find_opt c.put_state i with
        | Some (`Acked _) -> New
        | None | Some (`Sent _) -> Either)
    | Put (i, m, v) ->
        Hashtbl.replace c.put_state i (`Sent (m, v));
        Either
    | _ -> Either
  in
  let k = c.sent mod conns in
  Simnet.client_send c.net ~conn_id:c.cids.(k) (line rq);
  Queue.push { due; rq; expect } c.queues.(k);
  c.sent <- c.sent + 1;
  c.late <- ((now -. due) *. 1e3) :: c.late

let rec_reply i m v = Printf.sprintf "+OK rec %d m=%d v=%s" (key i) m v

let page_reply p psz =
  let ks = List.init psz (fun j -> string_of_int (appended_key ((p * psz) + j))) in
  Printf.sprintf "+OK page %d n=%d keys=%s" p psz (String.concat "," ks)

let check c (f : inflight) reply =
  let p = c.plan in
  match f.rq with
  | Get i ->
      let old = rec_reply i p.metas.(i) p.vals.(i) in
      let fresh () =
        match Hashtbl.find_opt c.put_state i with
        | Some (`Sent (m, v)) | Some (`Acked (m, v)) -> rec_reply i m v
        | None -> old
      in
      (match f.expect with
      | New -> reply = fresh ()
      | Either -> reply = old || reply = fresh ())
  | Put (i, m, v) ->
      Hashtbl.replace c.put_state i (`Acked (m, v));
      reply = Printf.sprintf "+OK put %d" (key i)
  | Mput (base, m) ->
      c.mput_keys <-
        List.init mput_count (fun j -> (base + j, m + j, "v" ^ string_of_int (base + j)))
        @ c.mput_keys;
      reply = Printf.sprintf "+OK mput %d" mput_count
  | Scan pg -> reply = page_reply pg 16 || reply = page_reply pg 8

let collect c ~now =
  Array.iteri
    (fun k cid ->
      let rec go () =
        match Simnet.client_recv c.net ~conn_id:cid with
        | `Line reply ->
            let f = Queue.pop c.queues.(k) in
            c.answered <- c.answered + 1;
            c.latencies <- ((now -. f.due) *. 1e3) :: c.latencies;
            if not (check c f reply) then begin
              c.errors <- c.errors + 1;
              if c.first_error = None then
                c.first_error <- Some (Printf.sprintf "%s -> %s" (line f.rq) reply)
            end;
            go ()
        | `Eof | `Wait -> ()
      in
      go ())
    c.cids

(* The store every acknowledged write should have left: populated records
   (with their PUT overwrites) plus every MPUT key, sorted by key. *)
let expected_records c =
  let p = c.plan in
  let base =
    List.init records (fun i ->
        match Hashtbl.find_opt c.put_state i with
        | Some (`Acked (m, v)) | Some (`Sent (m, v)) -> (key i, m, v)
        | None -> (key i, p.metas.(i), p.vals.(i)))
  in
  List.sort compare (base @ c.mput_keys)

(* Sleep most of the way, then spin on the clock for the last stretch so
   the arrival goes out on time. *)
let wait_until clock t =
  let slack = t -. clock () -. 0.0005 in
  if slack > 0.0 then Unix.sleepf slack;
  while clock () < t do
    ()
  done

(* --- set-up --------------------------------------------------------------- *)

type env = {
  vm : VM.Vm.t;
  rungs : (string * J.Transformers.prepared) list;
  cl : client;
}

let round vm = Trace.span "vm.sched" (fun () -> VM.Vm.run vm ~rounds:1)

let setup (p : plan) ~seed ~passes =
  let programs =
    List.map
      (fun v -> (v, Pb.compile (A.Patching.source M.app ~version:v)))
      [ "1.0"; "1.1"; "1.2"; "1.3" ]
  in
  let config =
    {
      A.Experience.default_config with
      VM.State.heap_words = records * 40;
      lazy_update = true;
      lazy_sweep_budget = 256;
    }
  in
  let vm = Trace.span "vm.heap" (fun () -> VM.Vm.create ~config ()) in
  Trace.span "vm.classloader" (fun () -> VM.Vm.boot vm (List.assoc "1.0" programs));
  VM.Vm.set_response_classifier vm (Some A.Workload.store_ok);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  (* let the server initialise its store and open its listener *)
  for _ = 1 to 25 do
    round vm
  done;
  Trace.span "vm.heap" (fun () -> populate vm p);
  ignore (Pb.vm_gc vm);
  (* a step down is the inverse of the step up it undoes; every spec gets
     its own tag, since each update renames the classes it supersedes *)
  let rungs =
    List.mapi
      (fun i ((from_v, to_v), inverse) ->
        ( (if inverse then from_v else to_v),
          Pb.prepare_update ~overrides:(M.overrides ~to_version:to_v) ~inverse
            ~version_tag:(Printf.sprintf "%ss%d" (A.Common.version_tag from_v) i)
            ~old_program:(List.assoc from_v programs)
            ~new_program:(List.assoc to_v programs) () ))
      (ladder ~passes)
  in
  (* warm-up: a closed burst of the seeded mix (its own stream) *)
  let cl = client vm p in
  let gen = generator ~stream:"store.warmup" p ~seed in
  Trace.span "loadgen" (fun () ->
      for _ = 1 to warmup_requests do
        let rq = gen () in
        (match rq with
        | Get _ | Scan _ -> send cl ~due:0.0 ~now:0.0 rq
        | Put _ | Mput _ -> ());
        while outstanding cl > 8 do
          round vm;
          collect cl ~now:0.0
        done
      done;
      while outstanding cl > 0 do
        round vm;
        collect cl ~now:0.0
      done);
  if cl.errors > 0 then
    failwith ("warm-up answered wrongly: " ^ Option.value cl.first_error ~default:"");
  (* the measured phase gets a fresh client on the same connections *)
  let cl = { cl with sent = 0; answered = 0; latencies = []; late = [] } in
  { vm; rungs; cl }

(* --- the measured phase ---------------------------------------------------- *)

type rung_state = {
  mutable pending : (string * J.Transformers.prepared) list;
  mutable handle : J.Jvolve.handle option; (* requested, not yet resolved *)
  mutable requested_at : float;
  mutable committed_at : float option; (* lazy window open since *)
  mutable applied : int;
  mutable aborted : int;
  mutable pauses : float list; (* ms *)
  mutable windows : float list; (* s, commit -> window closed *)
  mutable rollouts : float list; (* s, request -> window closed *)
  mutable window_rounds : int;
}

(* One figure per ladder cycle (up and back down): the six rung kinds
   differ (forward and inverse migrations, record and page rungs), so take
   the median of each kind over the run and add the six medians.  [samples]
   is newest first, one per rung. *)
let per_cycle samples =
  let k = List.length up in
  let kinds = Array.make (2 * k) [] in
  List.iteri
    (fun i x ->
      let pass = i / k in
      let kind = (if pass mod 2 = 0 then 0 else k) + (i mod k) in
      kinds.(kind) <- x :: kinds.(kind))
    (List.rev samples);
  Array.fold_left (fun acc xs -> if xs = [] then acc else acc +. Stats.median xs) 0.0 kinds

let cycle_metric name unit samples =
  {
    (Pb.scalar_metric name unit (per_cycle samples)) with
    Pb.e_samples = samples;
    e_how = Printf.sprintf "sum of the six rung kinds' medians over %d rungs" (List.length samples);
  }

let run ~seed ~seconds : Pb.result =
  let p = plan ~seed in
  let env, setup_s = Pb.repeat_setup setups (fun () -> setup p ~seed ~passes:(passes ~seconds)) in
  let vm = env.vm and c = env.cl in
  let gen = generator p ~seed in
  Pb.settle_host_gc ();
  Pb.excluded_s := 0.0;
  let clock () = Pb.now () -. !Pb.excluded_s in
  let st =
    {
      pending = env.rungs;
      handle = None;
      requested_at = 0.0;
      committed_at = None;
      applied = 0;
      aborted = 0;
      pauses = [];
      windows = [];
      rollouts = [];
      window_rounds = 0;
    }
  in
  let rungs_total = List.length env.rungs in
  let round_us = ref [] in
  let stats0 = VM.Vm.stats vm in
  let bytes0 = Simnet.stats c.net in
  let a0 = Pb.alloc_words () in
  let t0 = clock () in
  let stop_at = t0 +. seconds in
  let next_due = ref t0 in
  let lazy_hits = ref 0 and lazy_swept = ref 0 in
  let maybe_request now =
    match (st.pending, st.handle, st.committed_at) with
    | (_, prepared) :: rest, None, None
      when now -. t0 >= rung_spacing *. float_of_int (rungs_total - List.length st.pending + 1) ->
        Pb.settle_host_gc ();
        st.requested_at <- clock ();
        st.handle <- Some (Trace.span "core.jvolve" (fun () -> J.Jvolve.request vm prepared));
        st.pending <- rest
    | _ -> ()
  in
  let after_round ~t_round0 ~t_round1 =
    (match st.handle with
    | Some h when J.Jvolve.resolved h ->
        st.handle <- None;
        (match h.J.Jvolve.h_outcome with
        | J.Jvolve.Applied t ->
            st.applied <- st.applied + 1;
            st.pauses <- ((t_round1 -. t_round0) *. 1e3) :: st.pauses;
            Updates.note_applied vm h t;
            Pb.addi "core.lazy.windows" 1;
            st.committed_at <- Some t_round1
        | _ -> st.aborted <- st.aborted + 1)
    | _ -> ());
    match (st.committed_at, vm.VM.State.lazy_info) with
    | Some _, Some li ->
        st.window_rounds <- st.window_rounds + 1;
        lazy_hits := li.VM.State.li_barrier_hits;
        lazy_swept := li.VM.State.li_swept
    | Some tc, None ->
        st.committed_at <- None;
        st.windows <- (t_round1 -. tc) :: st.windows;
        st.rollouts <- (t_round1 -. st.requested_at) :: st.rollouts;
        Pb.addi "core.lazy.barrier_hits" !lazy_hits;
        Pb.addi "core.lazy.swept" !lazy_swept;
        lazy_hits := 0;
        lazy_swept := 0
    | None, _ -> ()
  in
  let vm_busy () = st.handle <> None || st.committed_at <> None || outstanding c > 0 in
  let busy () = st.pending <> [] || vm_busy () in
  Trace.span "bench.measure" (fun () ->
      let continue = ref true in
      while !continue do
        let now = clock () in
        if now < stop_at then
          Trace.span "loadgen" (fun () ->
              while !next_due <= now do
                send c ~due:!next_due ~now (gen ());
                next_due := !next_due +. (1.0 /. rate)
              done);
        maybe_request now;
        (* an idle VM has nothing to run until the next arrival: wait for
           it instead of spinning empty scheduler rounds *)
        if (not (vm_busy ())) && now < stop_at then
          Trace.span "loadgen" (fun () -> wait_until clock !next_due);
        let t_round0 = clock () in
        round vm;
        let t_round1 = clock () in
        round_us := ((t_round1 -. t_round0) *. 1e6) :: !round_us;
        after_round ~t_round0 ~t_round1;
        Trace.span "loadgen" (fun () -> collect c ~now:t_round1);
        continue := t_round1 < stop_at || (busy () && t_round1 < stop_at +. grace_s)
      done);
  let measured_s = clock () -. t0 in
  let alloc = Pb.alloc_words () -. a0 in
  let stats1 = VM.Vm.stats vm in
  let b_srv, b_cli = Simnet.stats c.net in
  Pb.addi "simnet.bytes" (b_srv + b_cli - fst bytes0 - snd bytes0);
  let timed_out = outstanding c in
  Array.iter (fun cid -> Simnet.client_close c.net ~conn_id:cid) c.cids;
  (* gate: the whole store, read back over the wire at schema 1.3 *)
  let scrape_ok, verify_ok, scrape_note =
    Trace.span "bench.gate" (fun () ->
        let scrape = Trace.span "apps.ministore" (fun () -> M.scrape vm) in
        let scrape_ok, note =
          match scrape with
          | Ok s ->
              let got = List.sort compare s.M.s_records in
              let want = expected_records c in
              let extra_seed = List.length got - List.length want in
              (* the app's own 40 seed records are not ours to check *)
              let ours = List.filter (fun (k, _, _) -> k >= key_base) got in
              ( s.M.s_version = "1.3" && ours = want,
                Printf.sprintf "scrape: %d records at schema %s (%d app seed records)"
                  (List.length got) s.M.s_version extra_seed )
          | Error e -> (false, "scrape failed: " ^ e)
        in
        ignore (Pb.vm_gc vm);
        (scrape_ok, (Pb.heapverify vm).VM.Heapverify.hv_ok, note))
  in
  let lat = c.latencies in
  Pb.set "vm.round_us_p50" (Stats.median !round_us);
  Pb.set "vm.round_us_p99"
    (Option.value (Stats.percentile_if_supported !round_us 99.0) ~default:0.0);
  Pb.set "loadgen.late_ms_p99"
    (Option.value (Stats.percentile_if_supported c.late 99.0) ~default:0.0);
  Pb.set "loadgen.req_p50_ms" (if lat = [] then 0.0 else Stats.median lat);
  Pb.set "loadgen.req_p99_ms"
    (Option.value (Stats.percentile_if_supported lat 99.0) ~default:0.0);
  Pb.addi "core.lazy.window_rounds" st.window_rounds;
  Pb.set "core.lazy.window_close_ms" (if st.windows = [] then 0.0 else Stats.median st.windows *. 1e3);
  Updates.vm_layer_values ~stats0 ~stats1
    ~round_s:(List.fold_left ( +. ) 0.0 !round_us /. 1e6);
  let failed = c.errors + timed_out + st.aborted + (rungs_total - st.applied - st.aborted) in
  let p99 = Stats.percentile_if_supported lat 99.0 in
  {
    Pb.r_gates =
      [
        ( Printf.sprintf "every rung applied (%d of %d)" st.applied rungs_total,
          st.applied = rungs_total );
        ("every lazy window closed", List.length st.windows = rungs_total && vm.VM.State.lazy_info = None);
        ( Printf.sprintf "every request answered correctly (%d wrong%s, %d unanswered)" c.errors
            (match c.first_error with Some e -> ": " ^ e | None -> "")
            timed_out,
          c.errors = 0 && timed_out = 0 );
        ("scrape returns every record at schema 1.3", scrape_ok);
        ("heap verifier green after a final collection", verify_ok);
      ];
    r_attempted = c.sent + rungs_total;
    r_failed = failed;
    r_e2e =
      [
        cycle_metric "pause_ms" "ms" st.pauses;
        cycle_metric "rollout_s" "s" st.rollouts;
        Pb.setup_metric setup_s;
        Pb.scalar_metric "alloc_mw" "Mwords" (alloc /. 1e6);
        Pb.peak_heap_metric ();
      ];
    r_notes =
      [
        Printf.sprintf "%d records, open loop at %.0f req/s over %d connections: %d requests in %.1f s"
          records rate conns c.sent measured_s;
        Printf.sprintf "req latency from due time: p50 %.3f ms, p99 %s (%d samples)"
          (if lat = [] then 0.0 else Stats.median lat)
          (match p99 with Some v -> Printf.sprintf "%.3f ms" v | None -> "n/a")
          (List.length lat);
        Printf.sprintf "generator lateness: p99 %s"
          (match Stats.percentile_if_supported c.late 99.0 with
          | Some v -> Printf.sprintf "%.3f ms" v
          | None -> "n/a");
        Printf.sprintf "window_close_s: median %s over %d rungs (%s)"
          (if st.windows = [] then "n/a" else Printf.sprintf "%.4f" (Stats.median st.windows))
          (List.length st.windows)
          (String.concat ", " (List.rev_map (Printf.sprintf "%.4f") st.windows));
        Printf.sprintf "per ladder cycle (sum of the six rung kinds' medians): pause %.3f ms, rollout %.4f s"
          (per_cycle st.pauses) (per_cycle st.rollouts);
        Printf.sprintf "commit pauses: %s ms"
          (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") st.pauses));
        scrape_note;
      ];
  }
