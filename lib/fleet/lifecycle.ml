(* One instance's update arc — the instance side of the paper's VM-local
   protocol (request, wait for a DSU safe point, apply or abort), plus
   the guard window, health probes and LB admission around it.  Every
   fleet driver runs the same arc through this module and decides only
   *when* to act: the orchestrator in central waves, a gossip node on a
   local quorum read, the supervisor after a restart.

   The arc is deterministic and stepped once per fleet round.  [step]
   turns an update request (or the VM it ran on being killed) into one
   typed [event] and has already done the bookkeeping that event
   implies: the instance's version and program, its status and its LB
   admission.  What the event means for the rollout — retry, halt,
   fence, vote — is the caller's policy. *)

module J = Jvolve_core
module VM = Jv_vm

type config = {
  drain_timeout : int; (* rounds to wait for in-flight sessions *)
  update_timeout : int; (* safe-point budget per request (paper: 15 s) *)
  probe_deadline : int; (* rounds one health probe may take *)
  probes_required : int; (* consecutive healthy probes before readmission *)
  max_retries : int; (* re-attempts after a clean abort *)
  backoff_base : int; (* rounds before retry #1; doubles per attempt *)
  admit_strict : bool; (* promote admission Warn verdicts to rejections *)
  guard : J.Guard.config option;
      (* guards forward requests; a config without a probe gets the
         profile's health probe on the instance's own port *)
}

type t = { fleet : Fleet.t; inst : Instance.t; cfg : config }

let create fleet cfg ~id = { fleet; inst = Fleet.instance fleet id; cfg }
let instance t = t.inst
let killed t = VM.Vm.killed t.inst.Instance.i_vm <> None
let in_flight t = Lb.in_flight (Fleet.lb t.fleet) ~id:t.inst.Instance.i_id

(* --- status and LB admission ------------------------------------------- *)

let set t status admit =
  t.inst.Instance.i_status <- status;
  Lb.set_admit (Fleet.lb t.fleet) ~id:t.inst.Instance.i_id admit

(* no new sessions; in-flight ones complete *)
let drain t = set t Instance.Draining false
let serve t = set t Instance.In_service true

(* not trusted to serve: only a supervisor restart brings it back *)
let take_out t = set t Instance.Out_of_service false

let backoff ~base ~attempt = base * (1 lsl (attempt - 1))

(* --- update requests --------------------------------------------------- *)

type op = {
  o_from : string; (* version the instance ran when requested *)
  o_to : string;
  o_spec : J.Spec.t;
  o_attempt : (J.Jvolve.handle, string) result; (* [Error]: never prepared *)
  mutable o_landed : bool; (* [Applied] already reported *)
}

type event =
  | Applied (* version and program moved; a guard window may be open *)
  | Guard_closed (* the window closed clean: the commit is final *)
  | Tripped of J.Guard.verdict (* reverted in-VM: old version, serving *)
  | Clean_abort of string (* rolled back: old version, serving *)
  | Lost of string
      (* killed VM, abort without rollback or failed revert: out of
         service with LB admission off *)
  | Healthy of int (* one healthy probe, latency in rounds *)
  | Unhealthy of string

(* This instance's spec from the version and program it runs now. *)
let spec t ~to_version =
  Profile.spec t.fleet.Fleet.profile ~instance_id:t.inst.Instance.i_id
    ~from_version:t.inst.Instance.i_version ~to_version
    ~old_program:t.inst.Instance.i_program

(* The fleet layer's only DSU request.  A spec that fails to prepare
   never reaches the VM; [step] reports it as a clean abort, exactly like
   an admission rejection. *)
let submit t ~guard ~to_version spec =
  let attempt =
    match
      J.Jvolve.request_spec ~timeout_rounds:t.cfg.update_timeout
        ~admit_strict:t.cfg.admit_strict ?guard t.inst.Instance.i_vm spec
    with
    | h -> Ok h
    | exception J.Transformers.Prepare_error e -> Error ("prepare: " ^ e)
  in
  {
    o_from = t.inst.Instance.i_version;
    o_to = to_version;
    o_spec = spec;
    o_attempt = attempt;
    o_landed = false;
  }

let request t ~to_version spec =
  t.inst.Instance.i_status <- Instance.Updating;
  let guard =
    Option.map
      (Profile.guard_config t.fleet.Fleet.profile
         ~deadline:t.cfg.probe_deadline ~port:t.inst.Instance.i_port)
      t.cfg.guard
  in
  submit t ~guard ~to_version spec

(* Undo forward [spec] back to [to_version]: the inverse spec through the
   ordinary pipeline, never guarded. *)
let request_inverse t ~to_version spec =
  t.inst.Instance.i_status <- Instance.Rolling_back;
  submit t ~guard:None ~to_version (J.Spec.inverse spec)

let handle op = Result.to_option op.o_attempt

(* the guard window is open, or its in-VM revert is in flight *)
let watching op =
  match op.o_attempt with Ok h -> J.Jvolve.guard_active h | Error _ -> false

(* Revert a landed forward [op]: force-trip its open guard window (the
   in-VM revert replays the retained log; keep stepping [op]), else
   request the inverse spec (step the returned op). *)
let revert t op ~reason =
  match op.o_attempt with
  | Ok h when J.Jvolve.guard_active h ->
      J.Jvolve.force_trip t.inst.Instance.i_vm h ~reason;
      op
  | _ -> request_inverse t ~to_version:op.o_from op.o_spec

(* Resolved, or stranded on a killed VM that can never reach a safe
   point: [step] has an event for it. *)
let settled t op =
  match op.o_attempt with
  | Error _ -> true
  | Ok h -> J.Jvolve.resolved h || killed t

let move t version program =
  t.inst.Instance.i_version <- version;
  t.inst.Instance.i_program <- program

(* One event per call, or [None] while the request is pending or its
   guard window open.  An outcome the VM reached wins over a kill that
   came after it. *)
let step t op =
  match op.o_attempt with
  | Error e ->
      serve t;
      Some (Clean_abort e)
  | Ok h -> (
      let lost why =
        take_out t;
        Some (Lost why)
      in
      match h.J.Jvolve.h_outcome with
      | J.Jvolve.Pending -> if killed t then lost "still pending" else None
      | J.Jvolve.Applied _ when not op.o_landed ->
          op.o_landed <- true;
          move t op.o_to op.o_spec.J.Spec.new_program;
          Some Applied
      | J.Jvolve.Applied _ ->
          if not (J.Jvolve.guard_active h) then Some Guard_closed
          else if killed t then lost "vm killed during guard window"
          else None
      | J.Jvolve.Reverted v ->
          move t op.o_from op.o_spec.J.Spec.old_program;
          serve t;
          Some (Tripped v)
      | J.Jvolve.Aborted a ->
          let why = J.Updater.abort_to_string a in
          (* a trip whose revert rolled forward stays on the new version *)
          if op.o_landed then lost ("guard revert failed: " ^ why)
          else if killed t || not a.J.Updater.a_rolled_back then lost why
          else begin
            serve t;
            Some (Clean_abort why)
          end)

(* --- health probes ----------------------------------------------------- *)

(* the ladder of consecutive healthy probes owed before readmission *)
type ladder = { mutable l_probe : Health.probe; mutable l_due : int }

let start_probe t =
  let p = t.fleet.Fleet.profile in
  Health.start ~net:(Instance.net t.inst) ~port:t.inst.Instance.i_port
    ~line:p.Profile.pr_health_probe ~ok:p.Profile.pr_health_ok
    ~now:(Fleet.ticks t.fleet) ~deadline_rounds:t.cfg.probe_deadline

let probe t = { l_probe = start_probe t; l_due = t.cfg.probes_required }
let passed l = l.l_due <= 0

(* A VM that dies while probed is a crash, not evidence against its
   version: [Lost], not [Unhealthy]. *)
let probe_step t l =
  if killed t then begin
    take_out t;
    Some (Lost "vm killed during health probe")
  end
  else begin
    Health.step l.l_probe ~now:(Fleet.ticks t.fleet);
    match Health.outcome l.l_probe with
    | Health.Pending -> None
    | Health.Unhealthy why -> Some (Unhealthy why)
    | Health.Healthy latency ->
        l.l_due <- l.l_due - 1;
        if l.l_due > 0 then l.l_probe <- start_probe t;
        Some (Healthy latency)
  end
