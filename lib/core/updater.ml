(* Applying an update once a DSU safe point is reached (paper §3.3-3.4):

   1. rename superseded classes and strip their methods;
   2. install the new class versions (and brand-new classes), carrying
      over unchanged static fields;
   3. swap updated method bodies in place and invalidate all compiled code
      whose resolved offsets the update stales;
   4. OSR the base-compiled category-(2) frames against the new metadata;
   5. run a full-heap collection with the transform plan — every instance
      of an updated class is replaced by a zeroed new-layout object, with
      the old copy kept in the update log;
   6. run class transformers, then object transformers over the log;
   7. discard the transformer class and the log.

   All of this happens with application threads stopped at safe points; the
   log array is registered as a GC root so transformer-phase allocation
   (which may trigger a nested plain collection) stays safe. *)

module CF = Jv_classfile
module State = Jv_vm.State
module Rt = Jv_vm.Rt
module Heap = Jv_vm.Heap
module Value = Jv_vm.Value
module Gc = Jv_vm.Gc
module Interp = Jv_vm.Interp
module Osr = Jv_vm.Osr
module Classloader = Jv_vm.Classloader
module Faults = Jv_faults.Faults

exception Update_error of string

let uerr fmt = Printf.ksprintf (fun s -> raise (Update_error s)) fmt

type timings = {
  u_load_ms : float; (* class installation + body swaps + OSR *)
  u_gc_ms : float;
  u_transform_ms : float;
  u_verify_ms : float; (* post-transform heap integrity walk (0 if off) *)
  u_total_ms : float;
  u_osr : int;
  u_invalidated_methods : int;
  u_transformed_objects : int;
  u_copied_objects : int;
}

(* --- typed aborts -------------------------------------------------------- *)

type phase =
  | P_admit (* rejected by admission control; the VM never paused *)
  | P_sync (* never reached [apply]: safe-point timeout, prepare error *)
  | P_load (* metadata installation, clinits, transformer install *)
  | P_gc (* the transforming collection *)
  | P_transform (* class and object transformers *)
  | P_verify (* the post-transform heap integrity walk *)
  | P_osr (* on-stack replacement of parked frames *)
  | P_guard (* the post-commit guard window: a failed automatic revert *)

let phase_to_string = function
  | P_admit -> "admit"
  | P_sync -> "sync"
  | P_load -> "load"
  | P_gc -> "gc"
  | P_transform -> "transform"
  | P_verify -> "verify"
  | P_osr -> "osr"
  | P_guard -> "guard"

(* Where a transformer was executing when it failed. *)
type transformer_site = {
  ts_method : string; (* qualified transformer method *)
  ts_class : string; (* class being transformed *)
  ts_object : int; (* heap address of the object; 0 for class transformers *)
}

let site_desc s =
  if s.ts_object = 0 then s.ts_class
  else Printf.sprintf "%s@%d" s.ts_class s.ts_object

type cause =
  | C_generic
  | C_injected of string (* fault-plan point that fired *)
  | C_transformer_trap of transformer_site * string
  | C_fuel_exhausted of transformer_site * int (* steps charged *)
  | C_sandbox_violation of transformer_site * string
  | C_heap_verify of string list (* verifier issues *)
  | C_admission of string list (* rejecting verdicts *)

let cause_to_string = function
  | C_generic -> "error"
  | C_injected pt -> "injected at " ^ pt
  | C_transformer_trap (s, msg) ->
      Printf.sprintf "transformer %s trapped on %s: %s" s.ts_method
        (site_desc s) msg
  | C_fuel_exhausted (s, steps) ->
      Printf.sprintf "transformer %s out of fuel (%d steps) on %s"
        s.ts_method steps (site_desc s)
  | C_sandbox_violation (s, msg) ->
      Printf.sprintf "transformer %s on %s: %s" s.ts_method (site_desc s) msg
  | C_heap_verify issues ->
      Printf.sprintf "heap verify: %d issue(s)" (List.length issues)
  | C_admission verdicts ->
      Printf.sprintf "admission: %d rejection(s)" (List.length verdicts)

type abort = {
  a_phase : phase;
  a_reason : string;
  a_cause : cause;
  a_rolled_back : bool;
      (* the transaction rolled back and the post-rollback audit (and
         heap verification, when enabled) passed: the VM is intact on
         the old version *)
  a_rollback_ms : float;
}

let sync_abort reason =
  { a_phase = P_sync; a_reason = reason; a_cause = C_generic;
    a_rolled_back = true; a_rollback_ms = 0.0 }

(* An update rejected before the VM paused: nothing was mutated, so the
   "transaction" is trivially intact. *)
let admission_abort reasons =
  {
    a_phase = P_admit;
    a_reason = "admission: " ^ String.concat "; " reasons;
    a_cause = C_admission reasons;
    a_rolled_back = true;
    a_rollback_ms = 0.0;
  }

let abort_to_string a =
  match a.a_phase with
  | P_sync | P_admit -> a.a_reason
  | _ ->
      Printf.sprintf "[%s] %s%s" (phase_to_string a.a_phase) a.a_reason
        (if a.a_rolled_back then " (rolled back)" else " (ROLLBACK FAILED)")

(* A transformer failure carrying its typed cause through the abort
   machinery (the bare [Update_error] string keeps serving everything
   that has no structure to preserve). *)
exception Update_failure of cause * string

let now () = Unix.gettimeofday ()

(* --- step helpers ------------------------------------------------------- *)

(* Invalidate a class and every method of it, compiled code included. *)
let strip_class (rc : Rt.rt_class) =
  rc.Rt.valid <- false;
  Array.iter
    (fun (m : Rt.rt_method) ->
      m.Rt.m_valid <- false;
      m.Rt.base_code <- None;
      m.Rt.opt_code <- None)
    rc.Rt.methods

let rename_old_classes vm (spec : Spec.t) : (string * Rt.rt_class) list =
  let tag = spec.Spec.version_tag in
  List.filter_map
    (fun name ->
      match Rt.find_class vm.State.reg name with
      | None -> None
      | Some rc ->
          Hashtbl.remove vm.State.reg.Rt.by_name name;
          let stub_name = Spec.old_class_name ~tag name in
          rc.Rt.name <- stub_name;
          strip_class rc;
          Hashtbl.replace vm.State.reg.Rt.by_name stub_name rc.Rt.cid;
          Some (name, rc))
    (spec.Spec.diff.Diff.class_updates_closure
    @ spec.Spec.diff.Diff.deleted_classes)

let install_new_classes vm (spec : Spec.t) : (string * Rt.rt_class) list =
  let wanted =
    spec.Spec.diff.Diff.class_updates_closure
    @ spec.Spec.diff.Diff.added_classes
  in
  let classfiles =
    List.filter
      (fun (c : CF.Cls.t) -> List.mem c.CF.Cls.c_name wanted)
      spec.Spec.new_program
  in
  Classloader.install vm ~replace:true classfiles
  |> List.map (fun (rc : Rt.rt_class) -> (rc.Rt.name, rc))

(* Unchanged statics keep their values across the update; everything else
   starts at its default and is the class transformer's job.  Superseded
   classes' static slots are cleared so their referents can be
   collected. *)
let carry_over_statics vm (spec : Spec.t)
    (olds : (string * Rt.rt_class) list) (news : (string * Rt.rt_class) list)
    =
  List.iter
    (fun (name, (old_rc : Rt.rt_class)) ->
      (match List.assoc_opt name news with
      | None -> () (* deleted class *)
      | Some new_rc ->
          Array.iter
            (fun (osi : Rt.static_info) ->
              let mapped_ty = Transformers.map_old_ty spec osi.Rt.si_ty in
              Array.iter
                (fun (nsi : Rt.static_info) ->
                  if
                    String.equal osi.Rt.si_name nsi.Rt.si_name
                    && CF.Types.equal_ty mapped_ty nsi.Rt.si_ty
                  then
                    State.jtoc_set vm nsi.Rt.si_slot
                      (State.jtoc_get vm osi.Rt.si_slot))
                new_rc.Rt.static_fields)
            old_rc.Rt.static_fields);
      (* clear the superseded slots *)
      Array.iter
        (fun (osi : Rt.static_info) -> State.jtoc_set vm osi.Rt.si_slot 0)
        old_rc.Rt.static_fields)
    olds

let swap_method_bodies vm (spec : Spec.t) =
  let newp = CF.Cls.program_of_list spec.Spec.new_program in
  List.iter
    (fun (r : Diff.mref) ->
      match Rt.find_class vm.State.reg r.Diff.r_class with
      | None -> uerr "body update: class %s not loaded" r.Diff.r_class
      | Some rc -> (
          let rm =
            Array.to_seq rc.Rt.methods
            |> Seq.find (fun (m : Rt.rt_method) ->
                   String.equal m.Rt.m_name r.Diff.r_name
                   && CF.Types.equal_msig m.Rt.m_sig r.Diff.r_sig)
          in
          match
            ( rm,
              Option.bind
                (CF.Cls.find_class newp r.Diff.r_class)
                (fun c -> CF.Cls.find_method c r.Diff.r_name r.Diff.r_sig) )
          with
          | Some rm, Some md ->
              rm.Rt.bytecode <- md.CF.Cls.md_code;
              rm.Rt.max_locals <- md.CF.Cls.md_max_locals;
              rm.Rt.base_code <- None;
              rm.Rt.opt_code <- None;
              (* body updates invalidate execution profiles (paper §3.3) *)
              rm.Rt.invocations <- 0
          | _ -> uerr "body update: cannot resolve %s" (Diff.mref_to_string r)))
    spec.Spec.diff.Diff.body_updates

(* Invalidate compiled code with stale offsets: category (2) methods, plus
   any opt code that inlined a method touched by the update. *)
let invalidate_stale_code vm (r : Safepoint.restricted) : int =
  let count = ref 0 in
  Rt.iter_methods vm.State.reg (fun (m : Rt.rt_method) ->
      let stale_direct = Safepoint.IntSet.mem m.Rt.uid r.Safepoint.stale in
      let stale_inline =
        match m.Rt.opt_code with
        | Some c ->
            List.exists
              (fun u ->
                Safepoint.IntSet.mem u r.Safepoint.stale
                || Safepoint.IntSet.mem u r.Safepoint.changed)
              c.Jv_vm.Machine.inlined
        | None -> false
      in
      if stale_direct && (m.Rt.base_code <> None || m.Rt.opt_code <> None)
      then begin
        m.Rt.base_code <- None;
        m.Rt.opt_code <- None;
        incr count
      end
      else if stale_inline then begin
        m.Rt.opt_code <- None;
        incr count
      end);
  vm.State.reg.Rt.epoch <- vm.State.reg.Rt.epoch + 1;
  !count

let unroot vm a =
  vm.State.extra_roots <- List.filter (fun x -> x != a) vm.State.extra_roots

(* --- the transformation engine ---------------------------------------------

   One engine runs every transformer in both update modes (DESIGN.md,
   "One engine").  Only the heap pass and the commit differ by mode:
   eager mode makes every (old copy, new object) pair in the transforming
   collection and runs the object transformers over that log inside the
   pause; lazy mode makes each pair when the read barrier or the sweeper
   first touches an old-epoch object.  Either way a transformer runs
   through [invoke_object] or [run_class_transformers], on the engine's
   carrier thread and under its sandbox; the caller decides the sandbox
   scope. *)

(* How the objects of one (new class, old class) pair are transformed. *)
type object_transformer =
  | Plan of Copy_plan.t (* the UPT default, compiled to a field copy *)
  | Method of Rt.rt_method (* anything the user wrote: interpreted *)

(* What every transformer invocation of one update shares, in either
   mode.  Object-transformer resolution is cached per (new cid, old cid):
   the paper's suggested "caching the lookup" optimization for the
   reflective dispatch.  The last answer is kept apart, so a run of
   objects of one class pair skips the hash. *)
type engine = {
  en_spec : Spec.t;
  en_rc : Rt.rt_class; (* the installed transformer class *)
  en_cache : (int * int, object_transformer) Hashtbl.t;
  mutable en_last : int * int * object_transformer;
  en_carrier : State.vthread; (* reused for every transformer invocation *)
  en_sandbox : State.sandbox; (* fuel accounting + write restriction *)
  mutable en_abort : (cause * string) option;
      (* the first failed transform of a lazy window *)
}

let make_engine vm spec rc =
  let carrier = Interp.make_carrier vm in
  (* idle between invocations: marked done so the scheduler never slices
     it; [invoke] re-registers it per call *)
  carrier.State.tstate <- State.T_done;
  {
    en_spec = spec;
    en_rc = rc;
    en_cache = Hashtbl.create 8;
    en_last = (-1, -1, Plan (Copy_plan.of_pairs []));
    en_carrier = carrier;
    en_sandbox = State.sandbox_create vm ~fuel:vm.State.config.transformer_fuel;
    en_abort = None;
  }

let release_engine vm en =
  vm.State.force_transform <- None;
  State.sandbox_dispose vm en.en_sandbox;
  Interp.release_carrier vm en.en_carrier

(* The transformer.* fault points simulate the three ways a bad
   transformer misbehaves, each driven through the real enforcement
   path rather than shortcutting to an abort: [transformer.loop] spends
   the invocation's remaining fuel so the very next instruction trips
   the budget; [transformer.throw] raises the trap a failing body
   would; [transformer.badwrite] pushes a store to a non-writable
   object (the old copy) through the sandbox's write gate. *)
let consult_transformer_faults vm (sb : State.sandbox) ~bad_target =
  (match Faults.check vm.State.faults "transformer.loop" with
  | Some _ -> sb.State.sb_steps <- sb.State.sb_fuel
  | None -> ());
  (match Faults.check vm.State.faults "transformer.throw" with
  | Some _ -> raise (Interp.Trap "injected: transformer.throw")
  | None -> ());
  match bad_target with
  | None -> () (* class transformer: no object to mis-target *)
  | Some addr -> (
      match Faults.check vm.State.faults "transformer.badwrite" with
      | Some _ ->
          let saved = sb.State.sb_guard in
          sb.State.sb_guard <- true;
          Fun.protect
            ~finally:(fun () -> sb.State.sb_guard <- saved)
            (fun () ->
              Interp.guard_write vm ~addr ~what:"putfield (injected)")
      | None -> ())

(* Classify a trapped transformer by the trap message the interpreter's
   enforcement produced, and surface the typed cause.  A transform that
   already failed inside this invocation keeps its own cause: in a lazy
   window the nested failure parked the carrier, which surfaces here as
   a generic blocked-call trap. *)
let fail_transformer vm en (site : transformer_site) msg =
  (match en.en_abort with
  | Some (c, r) -> raise (Update_failure (c, r))
  | None -> ());
  (* the failure is re-reported through the typed abort below; drop the
     carrier thread's entry from the VM-wide trap log so a contained
     transformer failure does not read as an app-thread crash *)
  (match vm.State.trap_log with
  | (_, m) :: rest when String.equal m msg ->
      vm.State.trap_log <- rest;
      (* ...and from the per-epoch attribution, or a contained transformer
         failure would spend the guard window's trap budget *)
      State.unrecord_trap_count vm
  | _ -> ());
  let cause, reason =
    if String.starts_with ~prefix:"transformer fuel exhausted" msg then
      let steps = en.en_sandbox.State.sb_steps in
      ( C_fuel_exhausted (site, steps),
        Printf.sprintf
          "%s exhausted its fuel budget (%d steps) transforming %s"
          site.ts_method steps (site_desc site) )
    else if String.starts_with ~prefix:"sandbox:" msg then
      ( C_sandbox_violation (site, msg),
        Printf.sprintf "%s transforming %s: %s" site.ts_method
          (site_desc site) msg )
    else
      ( C_transformer_trap (site, msg),
        Printf.sprintf "transformer %s trapped on %s: %s" site.ts_method
          (site_desc site) msg )
  in
  raise (Update_failure (cause, reason))

let find_transformer_method (transformer_rc : Rt.rt_class) ~name ~params =
  Array.to_seq transformer_rc.Rt.methods
  |> Seq.find (fun (m : Rt.rt_method) ->
         String.equal m.Rt.m_name name
         && List.length m.Rt.m_sig.CF.Types.params = List.length params
         && List.for_all2 CF.Types.equal_ty m.Rt.m_sig.CF.Types.params params)

let jvolve_object_method en ~(new_cls : Rt.rt_class) ~(old_cls : Rt.rt_class) =
  find_transformer_method en.en_rc ~name:"jvolveObject"
    ~params:[ CF.Types.TRef new_cls.Rt.name; CF.Types.TRef old_cls.Rt.name ]

let resolve_object_transformer vm en ~new_cid ~old_cid =
  let last_new, last_old, last = en.en_last in
  if last_new = new_cid && last_old = old_cid then last
  else begin
    let t =
      match Hashtbl.find_opt en.en_cache (new_cid, old_cid) with
      | Some t -> t
      | None ->
          let new_cls = Rt.class_by_id vm.State.reg new_cid in
          let old_cls = Rt.class_by_id vm.State.reg old_cid in
          let t =
            match
              Copy_plan.for_default en.en_spec ~dst:new_cls ~src:old_cls
            with
            | Some p -> Plan p
            | None -> (
                match jvolve_object_method en ~new_cls ~old_cls with
                | Some m -> Method m
                | None ->
                    uerr "no jvolveObject(%s, %s) in transformer class"
                      new_cls.Rt.name old_cls.Rt.name)
          in
          Hashtbl.replace en.en_cache (new_cid, old_cid) t;
          t
    in
    en.en_last <- (new_cid, old_cid, t);
    t
  end

(* Where an object transformer failed.  Built only on the failure path:
   a plan names the generated method it stands in for. *)
let object_site vm en t ~new_cid ~old_cid ~new_addr =
  let new_cls = Rt.class_by_id vm.State.reg new_cid in
  let m =
    match t with
    | Method m -> Some m
    | Plan _ ->
        jvolve_object_method en ~new_cls
          ~old_cls:(Rt.class_by_id vm.State.reg old_cid)
  in
  {
    ts_method =
      (match m with
      | Some m -> Rt.method_qname en.en_rc m
      | None -> "jvolveObject");
    ts_class = new_cls.Rt.name;
    ts_object = new_addr;
  }

(* Run a copy plan after the invocation's fault consult.  The fuel check
   stands in for the interpreter's first instruction, so a
   [transformer.loop] fault ends in the same typed abort as in an
   interpreted default transformer; the copy itself writes only the
   new-layout object, which the sandbox always allows. *)
let run_plan vm (sb : State.sandbox) p ~new_addr ~old_addr =
  if sb.State.sb_steps >= sb.State.sb_fuel then
    raise
      (Interp.Trap
         (Printf.sprintf "transformer fuel exhausted after %d steps"
            sb.State.sb_steps));
  Copy_plan.run vm.State.heap p ~dst:new_addr ~src:old_addr

(* Run [m] on the engine's carrier when it is free.  An idle carrier may
   have been reaped by the scheduler (a lazy window's carrier outlives
   the pause), so it is re-registered: its frames must be GC roots while
   the transformer runs.  Recursive transforms (via the Jvolve.transform
   native) arrive while the carrier is mid-call and take a fresh
   temporary thread. *)
let invoke vm en m args =
  let c = en.en_carrier in
  if c.State.frames = [] then begin
    if not (List.memq c vm.State.threads) then
      vm.State.threads <- vm.State.threads @ [ c ];
    Interp.call_on vm c m args
  end
  else Interp.call_sync vm m args

(* The one object-transformer invocation: resolve the transformer of the
   pair, give it fresh fuel, consult the faults, run the plan or the
   method (writes restricted to the object set), and turn a trap into a
   typed [Update_failure].  The sandbox must already be installed. *)
let invoke_object vm en ~new_addr ~old_addr =
  let heap = vm.State.heap in
  let new_cid = Heap.class_id heap new_addr in
  let old_cid = Heap.class_id heap old_addr in
  let t = resolve_object_transformer vm en ~new_cid ~old_cid in
  let sb = en.en_sandbox in
  let saved_guard = sb.State.sb_guard in
  sb.State.sb_steps <- 0;
  try
    consult_transformer_faults vm sb ~bad_target:(Some old_addr);
    match t with
    | Plan p -> run_plan vm sb p ~new_addr ~old_addr
    | Method m ->
        sb.State.sb_guard <- true;
        ignore
          (invoke vm en m [| Value.of_ref new_addr; Value.of_ref old_addr |]);
        sb.State.sb_guard <- saved_guard
  with
  | Interp.Sync_trap e | Interp.Trap e ->
      sb.State.sb_guard <- saved_guard;
      fail_transformer vm en (object_site vm en t ~new_cid ~old_cid ~new_addr) e
  | e ->
      sb.State.sb_guard <- saved_guard;
      raise e

(* Class transformers run with a fresh fuel budget but no write guard:
   (re)initializing statics legitimately reaches arbitrary objects.  They
   run eagerly in both modes — statics must be coherent when the world
   resumes — so in a lazy window they dereference old-epoch statics
   through the live barrier and force transforms as they go (the paper's
   eager islands inside the lazy window).  The sandbox is installed per
   call; there are only a handful of classes. *)
let run_class_transformers vm en =
  let sb = en.en_sandbox in
  List.iter
    (fun cname ->
      match
        find_transformer_method en.en_rc ~name:"jvolveClass"
          ~params:[ CF.Types.TRef cname ]
      with
      | None -> uerr "no jvolveClass(%s) in transformer class" cname
      | Some m ->
          let site =
            { ts_method = Rt.method_qname en.en_rc m; ts_class = cname;
              ts_object = 0 }
          in
          let saved_sandbox = vm.State.sandbox in
          vm.State.sandbox <- Some sb;
          sb.State.sb_steps <- 0;
          Fun.protect
            ~finally:(fun () -> vm.State.sandbox <- saved_sandbox)
            (fun () ->
              try
                consult_transformer_faults vm sb ~bad_target:None;
                ignore (invoke vm en m [| Value.null |])
              with Interp.Sync_trap e | Interp.Trap e ->
                fail_transformer vm en site e))
    en.en_spec.Spec.diff.Diff.class_updates_closure

(* --- eager: the pair loop over the collection's log ----------------------- *)

type transform_ctx = {
  log : int array; (* flattened (old, new) pairs; registered as GC roots *)
  n_pairs : int;
  status : int array; (* 0 = pending, 1 = in progress, 2 = done *)
  mutable index : (int, int) Hashtbl.t; (* new addr -> pair index *)
  mutable index_gc_count : int;
  engine : engine;
}

let run_pair vm ctx i =
  match ctx.status.(i) with
  | 2 -> ()
  | 1 ->
      (* a transformer dereferenced a field whose transformation is already
         on the stack: an ill-defined transformer set (paper §3.4) *)
      uerr "cyclic object-transformer dependency detected; aborting update"
  | _ ->
      ctx.status.(i) <- 1;
      invoke_object vm ctx.engine
        ~old_addr:(Value.to_ref ctx.log.(2 * i))
        ~new_addr:(Value.to_ref ctx.log.((2 * i) + 1));
      ctx.status.(i) <- 2

(* The Jvolve.transform native.  The index serves only this, so it is
   built on the first call (index_gc_count starts at -1) and again after
   any collection moved the heap. *)
let force_transform vm ctx addr =
  let gc_count = vm.State.heap.Heap.gc_count in
  if gc_count <> ctx.index_gc_count then begin
    let h = Hashtbl.create (max 16 ctx.n_pairs) in
    for i = 0 to ctx.n_pairs - 1 do
      Hashtbl.replace h (Value.to_ref ctx.log.((2 * i) + 1)) i
    done;
    ctx.index <- h;
    ctx.index_gc_count <- gc_count
  end;
  match Hashtbl.find_opt ctx.index addr with
  | Some i -> run_pair vm ctx i
  | None -> () (* not an object under transformation: no-op *)

(* Root the collection's log for the transformer phase and admit every
   new-layout object in it as a legitimate write target. *)
let begin_pairs vm en log =
  let n_pairs = Array.length log / 2 in
  vm.State.extra_roots <- log :: vm.State.extra_roots;
  for i = 0 to n_pairs - 1 do
    State.sandbox_allow vm en.en_sandbox (Value.to_ref log.((2 * i) + 1))
  done;
  let ctx =
    {
      log;
      n_pairs;
      status = Array.make (max 1 n_pairs) 0;
      index = Hashtbl.create 16;
      index_gc_count = -1;
      engine = en;
    }
  in
  vm.State.force_transform <- Some (fun vm addr -> force_transform vm ctx addr);
  ctx

(* --- log replays ---------------------------------------------------------- *)

(* (dst offset, src offset) for every same-named field pair that [ok]
   accepts, in [dst] field order. *)
let field_pairs (dst : Rt.rt_class) (src : Rt.rt_class) ok =
  Array.to_list dst.Rt.instance_fields
  |> List.concat_map (fun (d : Rt.field_info) ->
         Array.to_list src.Rt.instance_fields
         |> List.filter_map (fun (s : Rt.field_info) ->
                if String.equal d.Rt.fi_name s.Rt.fi_name && ok d s then
                  Some (d.Rt.fi_offset, s.Rt.fi_offset)
                else None))

(* Copy fields from each pair's even slot into its odd slot, with one
   copy plan per (odd class, even class), built by [fields] as
   (destination offset, source offset) pairs.  Returns the fields
   copied. *)
let copy_over_log vm (log : int array) fields =
  let heap = vm.State.heap in
  let reg = vm.State.reg in
  let plans = Hashtbl.create 8 in
  let copied = ref 0 in
  for i = 0 to (Array.length log / 2) - 1 do
    let src = Value.to_ref log.(2 * i) in
    let dst = Value.to_ref log.((2 * i) + 1) in
    let key = (Heap.class_id heap dst, Heap.class_id heap src) in
    let p =
      match Hashtbl.find_opt plans key with
      | Some p -> p
      | None ->
          let p =
            Copy_plan.of_pairs
              (fields
                 (Rt.class_by_id reg (fst key))
                 (Rt.class_by_id reg (snd key)))
          in
          Hashtbl.replace plans key p;
          p
    in
    Copy_plan.run heap p ~dst ~src;
    copied := !copied + Copy_plan.length p
  done;
  !copied

(* Inverse-update replay (guard revert).

   When a guard window trips, the revert is the inverse update applied
   through this same pipeline.  Its default transformers restore only the
   fields shared between the two layouts (copied from the pristine copies
   of the version being backed out, so in-window mutations survive).
   Fields the forward update *dropped* exist in neither that layout nor
   its copies — their pre-update values live only in the retained forward
   update log.  This step replays them: for every forward pair, copy
   exactly the dropped fields from the forward old copy into the restored
   object.

   The retained log's slots were rewritten by the revert's transforming
   collection: even slots now hold the (forwarded) pre-update copies, odd
   slots the restored new-layout objects — references to the backed-out
   objects were redirected to their replacements like any other root.
   Reference-typed dropped fields are sound for the same reason: the old
   copies were scanned as live objects through both collections, so their
   referents are current addresses of the restored versions. *)
let replay_retained vm (spec : Spec.t) (fwd_log : int array) : int =
  (* [spec] is the inverse spec: its [version_tag] renamed the version
     being backed out aside, so the forward-new layout of class N is the
     runtime class [v<tag>_N] *)
  let shared_with_forward (fwd_rc : Rt.rt_class) (nfi : Rt.field_info) =
    Array.exists
      (fun (ffi : Rt.field_info) ->
        String.equal ffi.Rt.fi_name nfi.Rt.fi_name
        && CF.Types.equal_ty
             (Transformers.map_old_ty spec ffi.Rt.fi_ty)
             nfi.Rt.fi_ty)
      fwd_rc.Rt.instance_fields
  in
  (* the dropped fields of one (restored class, pre-update class) pair:
     (restored offset, pre-update offset) *)
  copy_over_log vm fwd_log (fun (c_cls : Rt.rt_class) (a_cls : Rt.rt_class) ->
      if
        c_cls.Rt.valid
        && List.mem c_cls.Rt.name spec.Spec.diff.Diff.class_updates_closure
        (* a custom inverse transformer recomputes the old representation
           from *live* state (so in-window writes survive); replaying the
           pre-update copies over it would roll those writes back *)
        && not (List.mem_assoc c_cls.Rt.name spec.Spec.object_overrides)
      then
        match
          Rt.find_class vm.State.reg
            (Spec.old_class_name ~tag:spec.Spec.version_tag c_cls.Rt.name)
        with
        | None -> [] (* forward layout gone: nothing was dropped *)
        | Some fwd_rc ->
            (* dropped by the forward update: restore from the pre-update
               copy (same source layout as [c_cls]) *)
            field_pairs c_cls a_cls (fun nfi ofi ->
                (not (shared_with_forward fwd_rc nfi))
                && CF.Types.equal_ty ofi.Rt.fi_ty nfi.Rt.fi_ty)
      else [])

(* Copy same-named fields of the same reference-ness from each inverse
   pair's new-layout snapshot into its zeroed old-layout replacement — the
   default inverse transformation, applied to objects the app allocated
   as new-version instances during a lazy window (they are in no update
   log, so the rollback's redirect cannot restore them). *)
let lazy_untransform_defaults vm (inv_log : int array) =
  ignore
    (copy_over_log vm inv_log (fun old_cls new_cls ->
         field_pairs old_cls new_cls (fun ofi nfi ->
             CF.Types.is_reference ofi.Rt.fi_ty
             = CF.Types.is_reference nfi.Rt.fi_ty))
      : int)

let unload_transformer vm (rc : Rt.rt_class) =
  Hashtbl.remove vm.State.reg.Rt.by_name rc.Rt.name;
  strip_class rc

(* Restore the plain epoch tag on every surviving update-log copy: after
   a rollback the copies ARE the live objects again, and a later window
   must not skip them as pristine copies. *)
let scrub_copy_tags vm =
  let heap = vm.State.heap in
  let scan = ref 1 in
  while !scan < heap.Heap.free do
    let addr = !scan in
    let gcw = heap.Heap.space.(addr + Heap.off_gc) in
    if Heap.is_copy_tag gcw then
      heap.Heap.space.(addr + Heap.off_gc) <- Heap.copy_tag_epoch gcw;
    scan := addr + Gc.obj_size vm heap.Heap.space addr
  done

let try_rollback ?update_log vm txn =
  match Txn.rollback ?update_log vm txn with
  | () -> Ok ()
  | exception ex -> Error (Printexc.to_string ex)

(* The post-rollback step shared by the eager failure path and the lazy
   window rollback, once the heap and metadata are back: audit the
   metadata against the snapshot, give the copies a lazy log restored
   their plain tags back, re-verify the heap, and report.  A rollback
   that leaves ill-typed references standing is no rollback at all —
   reporting it as unreliable is what routes the instance into the
   orchestrator's quarantine policy.  Returns (rolled back, note for the
   abort reason, ms since [t0]). *)
let finish_rollback vm txn ~undone ~scrub ~t0 ~scope ~event ~reason ~pre
    ~post =
  let obs = vm.State.obs in
  let rolled_back, note =
    match undone with
    | Error why -> (false, "; rollback raised: " ^ why)
    | Ok () -> (
        match Txn.audit vm txn with
        | Ok () -> (true, "")
        | Error why -> (false, "; audit: " ^ why))
  in
  if rolled_back && scrub then scrub_copy_tags vm;
  let rolled_back, note =
    match
      if rolled_back && vm.State.config.verify_heap then
        Some (Jv_vm.Heapverify.run vm)
      else None
    with
    | Some rep when not rep.Jv_vm.Heapverify.hv_ok ->
        Jv_obs.Obs.incr obs (scope ^ ".post_rollback_verify_failures");
        ( false,
          note
          ^ Printf.sprintf "; post-rollback heap verify found %d issue(s): %s"
              rep.Jv_vm.Heapverify.hv_total_issues
              (match rep.Jv_vm.Heapverify.hv_issues with
              | i :: _ -> Jv_vm.Heapverify.issue_to_string i
              | [] -> "?") )
    | _ -> (rolled_back, note)
  in
  let ms = (now () -. t0) *. 1000.0 in
  Jv_obs.Obs.incr obs (scope ^ ".rollbacks");
  Jv_obs.Obs.observe obs (scope ^ ".rollback_ms") ms;
  Jv_obs.Obs.emit obs ~scope event
    (pre
    @ [
        ("reason", Jv_obs.Obs.Str reason);
        ("ok", Jv_obs.Obs.Str (string_of_bool rolled_back));
      ]
    @ post
    @ [ ("note", Jv_obs.Obs.Str note); ("ms", Jv_obs.Obs.Float ms) ]);
  (rolled_back, note, ms)

(* --- the lazy update window ----------------------------------------------

   With [config.lazy_update] the commit pause runs no transforming
   collection at all: metadata is installed, statics carried, the heap
   epoch is bumped, and the world resumes.  Old-epoch objects are then
   transformed on first access — the interpreter's read barrier hands
   every dereferenced reference slot to [transform_slot] — while the
   scheduler's incremental sweeper drains the remainder a bounded number
   of objects per round.

   A transformed original is overwritten with a lazy-forward marker
   ([Heap.make_lazy_fwd]) pointing at its new-layout replacement; its
   verbatim pristine copy carries a copy tag ([Heap.make_copy_tag]) so
   neither the barrier nor the sweeper touches it again, and the (copy,
   replacement) pair goes into the window's update log — the same shape
   the eager transforming collection produces, so [Txn.rollback] and the
   guard window's inverse-update replay work unchanged.

   The commit's [Txn] stays open for the life of the window.  It commits
   when the last pending object has been transformed ([lazy_finalize]);
   a residual transformer failure instead parks the faulting thread
   (B_dsu) and the next scheduler round rolls the whole window back
   ([lazy_rollback]). *)

type lazy_via = L_barrier | L_sweep | L_force

type lazy_ctx = {
  lz_txn : Txn.t; (* open until finalize or rollback *)
  lz_engine : engine; (* its spec also recomputes the restricted set *)
  lz_scratch : int array; (* one rooted slot for sweeper/force targets *)
  lz_info : State.lazy_info;
  mutable lz_cursor : int; (* sweeper position in to-space *)
  mutable lz_cursor_gc : int; (* gc_count the cursor belongs to *)
  mutable lz_abort_attempts : int; (* rounds spent waiting to roll back *)
}

(* The window's log grows pair by pair (the eager path gets its size from
   the collection up front).  The grown array replaces the old one both
   as a GC root and, when a guard window already rides on this log, as
   the retained publication. *)
let lazy_log_append vm (ctx : lazy_ctx) ~old_copy ~new_addr =
  let li = ctx.lz_info in
  if li.State.li_log_len + 2 > Array.length li.State.li_log then begin
    let a = Array.make (max 16 (2 * Array.length li.State.li_log)) 0 in
    Array.blit li.State.li_log 0 a 0 li.State.li_log_len;
    unroot vm li.State.li_log;
    vm.State.extra_roots <- a :: vm.State.extra_roots;
    (match vm.State.guard_retained with
    | Some g when g == li.State.li_log -> vm.State.guard_retained <- Some a
    | _ -> ());
    li.State.li_log <- a
  end;
  li.State.li_log.(li.State.li_log_len) <- Value.of_ref old_copy;
  li.State.li_log.(li.State.li_log_len + 1) <- Value.of_ref new_addr;
  li.State.li_log_len <- li.State.li_log_len + 2

let leave_window_scope vm (sb : State.sandbox) saved ~wm ~wm_gc =
  vm.State.sandbox <- saved;
  sb.State.sb_watermark <- wm;
  sb.State.sb_watermark_gc <- wm_gc

(* [invoke_object] in the lazy sandbox scope: the sandbox is installed
   only for the invocation — app code between barrier hits must not be
   fuel-charged or write-guarded — and the allocation watermark is reset
   per call so the transformer's own temporaries are writable. *)
let invoke_in_window vm en ~new_addr ~old_addr =
  let sb = en.en_sandbox in
  let saved = vm.State.sandbox in
  let wm = sb.State.sb_watermark and wm_gc = sb.State.sb_watermark_gc in
  vm.State.sandbox <- Some sb;
  sb.State.sb_watermark <- vm.State.heap.Heap.free;
  sb.State.sb_watermark_gc <- vm.State.heap.Heap.gc_count;
  match invoke_object vm en ~new_addr ~old_addr with
  | () -> leave_window_scope vm sb saved ~wm ~wm_gc
  | exception e ->
      leave_window_scope vm sb saved ~wm ~wm_gc;
      raise e

let count_transform (li : State.lazy_info) via d =
  li.State.li_transformed <- li.State.li_transformed + d;
  match via with
  | L_barrier -> li.State.li_barrier_hits <- li.State.li_barrier_hits + d
  | L_sweep -> li.State.li_swept <- li.State.li_swept + d
  | L_force -> ()

(* Transform the object referenced by [slots.(idx)] if it is still
   pending, chase an already-installed marker, and rewrite the slot.
   [slots] must be a GC root (an operand stack, the scratch root): the
   transformer may allocate and collect. *)
let transform_slot vm (ctx : lazy_ctx) ~via slots idx =
  let en = ctx.lz_engine in
  if en.en_abort <> None then raise Interp.Lazy_abort;
  let heap = vm.State.heap in
  let li = ctx.lz_info in
  let addr = Value.to_ref slots.(idx) in
  let gcw = heap.Heap.space.(addr + Heap.off_gc) in
  if Heap.is_lazy_fwd gcw then begin
    let rec chase a =
      let w = heap.Heap.space.(a + Heap.off_gc) in
      if Heap.is_lazy_fwd w then chase (Heap.lazy_fwd_target w) else a
    in
    slots.(idx) <- Value.of_ref (chase (Heap.lazy_fwd_target gcw));
    li.State.li_chases <- li.State.li_chases + 1
  end
  else if Heap.is_copy_tag gcw then () (* pristine update-log copy *)
  else
    let cid = heap.Heap.space.(addr + Heap.off_class) in
    match Hashtbl.find_opt li.State.li_plan cid with
    | None -> ()
    | Some new_cid ->
        let new_cls = Rt.class_by_id vm.State.reg new_cid in
        let old_size = Gc.obj_size vm heap.Heap.space addr in
        (* both allocations must land without an intervening collection,
           so the blit source cannot move between them *)
        State.ensure_free vm (new_cls.Rt.size_words + old_size);
        let addr = Value.to_ref slots.(idx) (* the GC may have moved it *) in
        let old_tag = heap.Heap.space.(addr + Heap.off_gc) in
        let new_addr = State.alloc_object vm new_cls in
        let old_copy =
          match Heap.alloc_raw heap ~nwords:old_size with
          | Some a -> a
          | None -> State.fatal "lazy transform: reserved space vanished"
        in
        Array.blit heap.Heap.space addr heap.Heap.space old_copy old_size;
        heap.Heap.space.(old_copy + Heap.off_gc) <- Heap.make_copy_tag old_tag;
        (* marker first: a re-entrant touch of the same object during its
           own transformer (the cyclic case, fatal in the eager path)
           chases the marker and reads the half-written replacement
           instead of recursing *)
        heap.Heap.space.(addr + Heap.off_gc) <- Heap.make_lazy_fwd new_addr;
        lazy_log_append vm ctx ~old_copy ~new_addr;
        State.sandbox_allow vm en.en_sandbox new_addr;
        slots.(idx) <- Value.of_ref new_addr;
        count_transform li via 1;
        let gc_before = heap.Heap.gc_count in
        match invoke_in_window vm en ~new_addr ~old_addr:old_copy with
        | () -> ()
        | exception Update_failure (cause, msg) ->
            (* undo the pair when nothing moved, so the failed transform
               leaves no marker behind; after a collection the rollback's
               redirect restores it from the copy instead *)
            if heap.Heap.gc_count = gc_before then begin
              heap.Heap.space.(addr + Heap.off_gc) <- old_tag;
              li.State.li_log_len <- li.State.li_log_len - 2;
              slots.(idx) <- Value.of_ref addr;
              count_transform li via (-1)
            end;
            if en.en_abort = None then en.en_abort <- Some (cause, msg);
            Jv_obs.Obs.emit vm.State.obs ~scope:"core.lazy" "lazy.abort"
              [ ("reason", Jv_obs.Obs.Str msg) ];
            raise Interp.Lazy_abort

(* The read barrier (State.lazy_barrier).  Fast path: one gc-word load
   and compare against the window's epoch.  Old-epoch objects of
   unchanged classes are stamped current on first touch so they too take
   the fast path from then on. *)
let lazy_barrier_hook (ctx : lazy_ctx) vm slots idx =
  let w = slots.(idx) in
  if Value.is_ref w then begin
    let heap = vm.State.heap in
    let li = ctx.lz_info in
    let addr = Value.to_ref w in
    let gcw = heap.Heap.space.(addr + Heap.off_gc) in
    if gcw = li.State.li_epoch then ()
    else if
      Heap.is_plain_tag gcw
      && not
           (Hashtbl.mem li.State.li_plan
              heap.Heap.space.(addr + Heap.off_class))
    then heap.Heap.space.(addr + Heap.off_gc) <- li.State.li_epoch
    else transform_slot vm ctx ~via:L_barrier slots idx
  end

(* The Jvolve.transform native under an open window: force one object. *)
let lazy_force vm (ctx : lazy_ctx) addr =
  ctx.lz_scratch.(0) <- Value.of_ref addr;
  Fun.protect
    ~finally:(fun () -> ctx.lz_scratch.(0) <- 0)
    (fun () -> transform_slot vm ctx ~via:L_force ctx.lz_scratch 0)

(* One bounded sweep over to-space.  Returns true when the walk reached
   the allocation frontier with no pending object left (and no abort and
   no mid-pass collection): the window has drained. *)
let sweep_pass vm (ctx : lazy_ctx) ~budget =
  let heap = vm.State.heap in
  let li = ctx.lz_info in
  let en = ctx.lz_engine in
  if ctx.lz_cursor_gc <> heap.Heap.gc_count then begin
    (* a collection moved everything: restart the walk in new to-space *)
    ctx.lz_cursor <- 1;
    ctx.lz_cursor_gc <- heap.Heap.gc_count
  end;
  let budget = ref budget in
  while
    !budget > 0
    && ctx.lz_cursor < heap.Heap.free
    && ctx.lz_cursor_gc = heap.Heap.gc_count
    && en.en_abort = None
  do
    let addr = ctx.lz_cursor in
    let size = Gc.obj_size vm heap.Heap.space addr in
    let gcw = heap.Heap.space.(addr + Heap.off_gc) in
    if
      Heap.is_plain_tag gcw
      && Hashtbl.mem li.State.li_plan heap.Heap.space.(addr + Heap.off_class)
    then begin
      ctx.lz_scratch.(0) <- Value.of_ref addr;
      (try transform_slot vm ctx ~via:L_sweep ctx.lz_scratch 0
       with Interp.Lazy_abort -> ());
      ctx.lz_scratch.(0) <- 0
    end;
    (* the budget bounds objects *visited*, not just transformed: each
       round's sweep work stays O(budget) regardless of heap size *)
    decr budget;
    if ctx.lz_cursor_gc = heap.Heap.gc_count then ctx.lz_cursor <- addr + size
  done;
  en.en_abort = None
  && ctx.lz_cursor >= heap.Heap.free
  && ctx.lz_cursor_gc = heap.Heap.gc_count

(* The lazy heap pass: no collection.  Bump the heap epoch, open the
   window and install the read barrier; old-epoch objects transform on
   first access and the scheduler's sweeper drains the rest. *)
let open_window vm en txn plan =
  vm.State.heap.Heap.epoch <- vm.State.heap.Heap.epoch + 1;
  let li =
    {
      State.li_plan = plan;
      li_epoch = vm.State.heap.Heap.epoch;
      li_log = Array.make 16 0;
      li_log_len = 0;
      li_transformed = 0;
      li_barrier_hits = 0;
      li_swept = 0;
      li_chases = 0;
    }
  in
  vm.State.lazy_info <- Some li;
  let scratch = Array.make 1 0 in
  vm.State.extra_roots <- scratch :: li.State.li_log :: vm.State.extra_roots;
  (* the sandbox is installed only around transformer invocations — the
     app code running between barrier hits is not fuel-charged *)
  vm.State.sandbox <- None;
  let ctx =
    {
      lz_txn = txn;
      lz_engine = en;
      lz_scratch = scratch;
      lz_info = li;
      lz_cursor = 1;
      lz_cursor_gc = vm.State.heap.Heap.gc_count;
      lz_abort_attempts = 0;
    }
  in
  vm.State.lazy_barrier <- Some (lazy_barrier_hook ctx);
  vm.State.force_transform <- Some (fun vm addr -> lazy_force vm ctx addr);
  ctx

(* Detach the window's hooks and resources, unload its transformer
   class, and return its log trimmed to the pairs made (shared by
   finalize, rollback, and a commit that failed in the pause). *)
let close_window vm (ctx : lazy_ctx) =
  let li = ctx.lz_info in
  vm.State.lazy_barrier <- None;
  vm.State.lazy_sweep <- None;
  vm.State.lazy_drain <- None;
  vm.State.lazy_info <- None;
  release_engine vm ctx.lz_engine;
  unload_transformer vm ctx.lz_engine.en_rc;
  unroot vm ctx.lz_scratch;
  unroot vm li.State.li_log;
  Array.sub li.State.li_log 0 li.State.li_log_len

(* Every pending object has been transformed: commit the transaction
   that has been open since the pause.  When a guard window rides on the
   log, hand it the trimmed array — the inverse-update replay iterates
   the whole array, so the growth slack must go. *)
let lazy_finalize vm (ctx : lazy_ctx) =
  let li = ctx.lz_info in
  let trimmed = close_window vm ctx in
  (match vm.State.guard_retained with
  | Some g when g == li.State.li_log ->
      vm.State.extra_roots <- trimmed :: vm.State.extra_roots;
      vm.State.guard_retained <- Some trimmed;
      Txn.commit_retaining vm ctx.lz_txn ~update_log:trimmed
  | _ -> Txn.commit vm ctx.lz_txn);
  (* every pending object is transformed, but interior pointers still
     aiming at lazy-forward markers are only rewritten on dereference —
     and the barrier is gone now.  One collection chases them all (the
     GC does it at [forward] entry), after which the markers (and the
     copies, unless a guard window retains the log) are garbage. *)
  ignore (Gc.collect vm);
  let obs = vm.State.obs in
  Jv_obs.Obs.incr obs "core.lazy.drained";
  Jv_obs.Obs.observe_int obs "core.lazy.transformed" li.State.li_transformed;
  Jv_obs.Obs.emit obs ~scope:"core.lazy" "lazy.drained"
    [
      ("transformed", Jv_obs.Obs.Int li.State.li_transformed);
      ("barrier_hits", Jv_obs.Obs.Int li.State.li_barrier_hits);
      ("swept", Jv_obs.Obs.Int li.State.li_swept);
      ("chases", Jv_obs.Obs.Int li.State.li_chases);
    ]

(* Roll the whole window back: the VM resumes on the old version as if
   the update never committed.  Unlike the eager failure path the app
   has been RUNNING on the new version, so this needs a DSU-grade sync:
   the restricted set is recomputed against current (new) metadata — a
   thread inside a changed method cannot survive the metadata swap — and
   a blocked check parks behind return barriers and retries next round.
   [force] overrides that after the retry budget is spent (counted as
   unsafe frames).

   Heap restoration runs as ONE collection doing double duty before the
   metadata swap: the window log's redirects send every reference that
   landed on a transformed replacement back to its pristine copy, and an
   inverse transform plan (new cid -> old cid) replaces app-allocated
   new-version instances with default-untransformed old-layout objects.
   After the metadata swap a plain collection flushes the garbage this
   left behind (its class ids dangle once the registry is truncated);
   [finish_rollback] then audits, scrubs the copy tags and verifies. *)
let lazy_rollback vm (ctx : lazy_ctx) ~force : bool =
  let en = ctx.lz_engine in
  let restricted = Safepoint.compute vm en.en_spec in
  match Safepoint.check vm restricted with
  | Safepoint.Blocked stuck when not force ->
      ignore (Safepoint.install_barriers stuck : int);
      Safepoint.unpark_stuck stuck;
      false
  | res ->
      let osr_frames, forced_through =
        match res with
        | Safepoint.Safe frames -> (frames, false)
        | Safepoint.Blocked _ -> ([], true)
      in
      let li = ctx.lz_info in
      let t0 = now () in
      let trimmed = close_window vm ctx in
      (* the guard window (if any) rode on this log and dies with it *)
      (match vm.State.guard_retained with
      | Some g when g == li.State.li_log ->
          vm.State.guard_retained <- None;
          vm.State.guard_tick <- None
      | _ -> ());
      (* 1: the combined redirect + inverse-transform collection (still
         on new metadata) *)
      let redirect = Txn.redirect_of_log trimmed in
      let inv_plan = Hashtbl.create 16 in
      Hashtbl.iter
        (fun old_cid new_cid -> Hashtbl.replace inv_plan new_cid old_cid)
        li.State.li_plan;
      let invres = Gc.collect ~plan:inv_plan ~redirect vm in
      lazy_untransform_defaults vm invres.Gc.update_log;
      (* 2: metadata + statics back to the snapshot (no heap pass: step 1
         already did it) *)
      let undone = try_rollback vm ctx.lz_txn in
      (* 3: flush the inverse collection's own snapshots (their class ids
         dangle now that the registry is truncated) *)
      ignore (Gc.collect vm);
      (* 4: lift stale-code frames onto the restored metadata *)
      let osr_failures = ref 0 in
      List.iter
        (fun fr ->
          try Osr.replace_frame vm fr
          with Osr.Osr_failed _ -> incr osr_failures)
        osr_frames;
      Safepoint.clear_barriers vm;
      Safepoint.release_parked vm;
      if forced_through then
        Jv_obs.Obs.incr vm.State.obs "core.lazy.rollback_unsafe_frames";
      ignore
        (finish_rollback vm ctx.lz_txn ~undone ~scrub:true ~t0
           ~scope:"core.lazy" ~event:"lazy.rollback"
           ~reason:
             (match en.en_abort with
             | Some (_, r) -> r
             | None -> "lazy window rollback")
           ~pre:[]
           ~post:
             [
               ("transformed", Jv_obs.Obs.Int li.State.li_transformed);
               ("forced", Jv_obs.Obs.Str (string_of_bool forced_through));
               ("osr_failures", Jv_obs.Obs.Int !osr_failures);
             ]
          : bool * string * float);
      true

(* The per-round hook (State.lazy_sweep): roll back if aborting, else
   sweep one budget's worth and finalize on completion. *)
let lazy_round (ctx : lazy_ctx) vm =
  match ctx.lz_engine.en_abort with
  | Some _ ->
      ctx.lz_abort_attempts <- ctx.lz_abort_attempts + 1;
      ignore
        (lazy_rollback vm ctx ~force:(ctx.lz_abort_attempts > 200) : bool)
  | None ->
      let budget = max 1 vm.State.config.lazy_sweep_budget in
      if sweep_pass vm ctx ~budget then lazy_finalize vm ctx

(* Synchronous drain (State.lazy_drain): force every residual transform
   now — a new update, or the guard's inverse update, needs the window
   resolved before it can install metadata.  Returns false when a
   residual transformer trapped and the window rolled back instead. *)
let rec lazy_drain_now (ctx : lazy_ctx) vm =
  if ctx.lz_engine.en_abort <> None then begin
    ignore (lazy_rollback vm ctx ~force:true : bool);
    false
  end
  else if sweep_pass vm ctx ~budget:max_int then begin
    lazy_finalize vm ctx;
    true
  end
  else lazy_drain_now ctx vm

(* --- the driver ----------------------------------------------------------- *)

(* Snapshot what OSR mutates in a frame; the result restores it when a
   later frame's replacement (or an injected fault) aborts the update. *)
let snap_frame (fr : State.frame) =
  let code = fr.State.code and pc = fr.State.pc and sp = fr.State.sp in
  let locals = Array.copy fr.State.locals in
  let ostack = Array.copy fr.State.ostack in
  fun () ->
    fr.State.code <- code;
    fr.State.pc <- pc;
    fr.State.locals <- locals;
    fr.State.ostack <- ostack;
    fr.State.sp <- sp

(* What the heap pass left for the rest of [apply]: the one step that
   differs by mode. *)
type heap_pass =
  | Collected of transform_ctx (* eager: every pair, in the pause *)
  | Window of lazy_ctx (* lazy: pairs made on first access *)

(* The whole installation runs inside a [Txn]: any failure in the load /
   GC / transform / OSR phases — including the armed fault plan's
   [updater.*] injection points — rolls the VM back to the pre-update
   snapshot and reports a typed abort instead of leaving a half-installed
   class table (the paper's all-or-nothing claim, §3.3-3.4).

   One sequence serves both modes: load -> heap pass -> class
   transformers -> object transformers (eager only) -> replay (guard
   revert only) -> verify -> OSR.  A lazy commit leaves its window open
   and its [Txn] with it.

   Step order differs from the paper's presentation in one way: OSR runs
   {e last}, after the transformer phase.  The world is stopped either
   way, so nothing observes the difference — but every failure before
   OSR then needs no frame surgery to undo, and an OSR failure itself
   restores the frames it touched from snapshots. *)
let apply ?(retain_log = false) ?replay vm (p : Transformers.prepared)
    ~(restricted : Safepoint.restricted)
    ~(osr_frames : State.frame list) : (timings, abort) result =
  (* a still-draining lazy window from a previous update must resolve
     before new metadata can install on top of it; proceed either way —
     a drain-time rollback leaves the VM cleanly on the older version *)
  (match vm.State.lazy_drain with
  | Some drain -> ignore (drain vm : bool)
  | None -> ());
  let spec = p.Transformers.p_spec in
  (* a guard revert must be eager: the inverse replay reads restored
     objects immediately after the transforming collection *)
  let lazy_mode = vm.State.config.lazy_update && replay = None in
  let faults = vm.State.faults in
  let obs = vm.State.obs in
  let t0 = now () in
  let txn = Txn.capture vm in
  let phase = ref P_load in
  let pass = ref None in
  let frame_snaps = ref [] in
  let run () =
    (* a guard-window revert: give the chaos plan its deterministic shot
       at the revert path itself (a fire rolls the revert back — the VM
       stays on the version being backed out, heap intact) *)
    if replay <> None then Faults.point faults "guard.revert";
    (* 1-3: metadata installation *)
    let olds = rename_old_classes vm spec in
    let news = install_new_classes vm spec in
    carry_over_statics vm spec olds news;
    swap_method_bodies vm spec;
    let invalidated = invalidate_stale_code vm restricted in
    Faults.point faults "updater.load";
    (* static initializers of brand-new classes *)
    List.iter
      (fun name ->
        match List.assoc_opt name news with
        | Some rc -> (
            try Classloader.run_clinit vm rc
            with Interp.Sync_trap e -> uerr "<clinit> of %s trapped: %s" name e)
        | None -> ())
      spec.Spec.diff.Diff.added_classes;
    (* install the transformer class *)
    let transformer_rc =
      match
        Classloader.install vm ~replace:true [ p.Transformers.p_transformer ]
      with
      | [ rc ] -> rc
      | _ -> uerr "failed to install transformer class"
    in
    let t_load = now () in
    Jv_obs.Obs.incr ~by:invalidated obs "core.update.invalidated_methods";
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.metadata.done"
      [
        ("ms", Jv_obs.Obs.Float ((t_load -. t0) *. 1000.0));
        ("invalidated", Jv_obs.Obs.Int invalidated);
        ("osr_frames", Jv_obs.Obs.Int (List.length osr_frames));
      ];
    (* 5: the heap pass — the transforming collection, or (lazy) none *)
    phase := P_gc;
    Faults.point faults "updater.gc";
    let plan = Hashtbl.create 16 in
    List.iter
      (fun (name, (old_rc : Rt.rt_class)) ->
        match List.assoc_opt name news with
        | Some new_rc -> Hashtbl.replace plan old_rc.Rt.cid new_rc.Rt.cid
        | None -> () (* deleted classes: instances survive untransformed *))
      olds;
    let gcres = if lazy_mode then None else Some (Gc.collect ~plan vm) in
    let t_gc = now () in
    let collected, copied =
      match gcres with
      | Some g -> (g.Gc.transformed_objects, g.Gc.copied_objects)
      | None -> (0, 0)
    in
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.gc.done"
      ([
         ("ms", Jv_obs.Obs.Float ((t_gc -. t_load) *. 1000.0));
         ("transformed", Jv_obs.Obs.Int collected);
         ("copied", Jv_obs.Obs.Int copied);
       ]
      @ if lazy_mode then [ ("lazy", Jv_obs.Obs.Str "true") ] else []);
    (* 6: transformers, sandboxed (fuel + write restriction) *)
    phase := P_transform;
    let en = make_engine vm spec transformer_rc in
    let hp =
      match gcres with
      | Some g -> Collected (begin_pairs vm en g.Gc.update_log)
      | None -> Window (open_window vm en txn plan)
    in
    pass := Some hp;
    Faults.point faults "updater.transform";
    run_class_transformers vm en;
    (match hp with
    | Collected ctx ->
        for i = 0 to ctx.n_pairs - 1 do
          Faults.point faults "updater.transform";
          run_pair vm ctx i
        done;
        release_engine vm en;
        (* a guard window retains the log past commit, so it stays
           rooted; otherwise it is unreachable from here on *)
        if not retain_log then unroot vm ctx.log;
        (* 7: drop the transformer class *)
        unload_transformer vm transformer_rc
    | Window _ -> ());
    (* 7.25: guard revert only — restore the fields the forward update
       dropped from the retained forward log (see [replay_retained]) *)
    (match replay with
    | Some fwd_log when Array.length fwd_log > 1 ->
        let n = replay_retained vm spec fwd_log in
        Jv_obs.Obs.incr ~by:n obs "core.guard.replayed_fields";
        Jv_obs.Obs.emit obs ~scope:"core.update" "phase.replay.done"
          [
            ("fields", Jv_obs.Obs.Int n);
            ("pairs", Jv_obs.Obs.Int (Array.length fwd_log / 2));
          ]
    | _ -> ());
    let log, n_pairs =
      match hp with
      | Collected ctx -> (ctx.log, ctx.n_pairs)
      | Window w -> (w.lz_info.State.li_log, w.lz_info.State.li_log_len / 2)
    in
    let t_transform = now () in
    let steps = en.en_sandbox.State.sb_total_steps in
    Jv_obs.Obs.observe_int obs "core.update.transformer_steps" steps;
    Jv_obs.Obs.emit obs ~scope:"core.update" "phase.transform.done"
      [
        ("ms", Jv_obs.Obs.Float ((t_transform -. t_gc) *. 1000.0));
        ("pairs", Jv_obs.Obs.Int n_pairs);
        ("steps", Jv_obs.Obs.Int steps);
      ];
    (* 7.5: the post-transform heap integrity walk.  The old copies in
       the update log are the one place stale-class instances may
       legally survive. *)
    if vm.State.config.verify_heap then begin
      phase := P_verify;
      let old_copies = Hashtbl.create (max 16 n_pairs) in
      for i = 0 to n_pairs - 1 do
        Hashtbl.replace old_copies (Value.to_ref log.(2 * i)) ()
      done;
      let rep =
        Jv_vm.Heapverify.run ~stale_ok:(Hashtbl.mem old_copies) vm
      in
      Jv_obs.Obs.emit obs ~scope:"core.update" "phase.verify.done"
        [
          ("ms", Jv_obs.Obs.Float rep.Jv_vm.Heapverify.hv_ms);
          ("objects", Jv_obs.Obs.Int rep.Jv_vm.Heapverify.hv_objects);
          ("issues", Jv_obs.Obs.Int rep.Jv_vm.Heapverify.hv_total_issues);
        ];
      if not rep.Jv_vm.Heapverify.hv_ok then begin
        let msgs =
          List.map Jv_vm.Heapverify.issue_to_string
            rep.Jv_vm.Heapverify.hv_issues
        in
        raise
          (Update_failure
             ( C_heap_verify msgs,
               Printf.sprintf "heap verify found %d issue(s): %s"
                 rep.Jv_vm.Heapverify.hv_total_issues
                 (match msgs with m :: _ -> m | [] -> "?") ))
      end
    end;
    let t_verify = now () in
    (* 4 (run last, see above): OSR the parked category-(2) frames *)
    phase := P_osr;
    frame_snaps := List.map snap_frame osr_frames;
    Faults.point faults "updater.osr";
    List.iter
      (fun fr ->
        try Osr.replace_frame vm fr
        with Osr.Osr_failed e -> uerr "OSR failed: %s" e)
      osr_frames;
    let t_end = now () in
    {
      u_load_ms = ((t_load -. t0) +. (t_end -. t_verify)) *. 1000.0;
      u_gc_ms = (t_gc -. t_load) *. 1000.0;
      u_transform_ms = (t_transform -. t_gc) *. 1000.0;
      u_verify_ms = (t_verify -. t_transform) *. 1000.0;
      u_total_ms = (t_end -. t0) *. 1000.0;
      u_osr = List.length osr_frames;
      u_invalidated_methods = invalidated;
      u_transformed_objects =
        (match hp with
        | Collected _ -> collected
        | Window w -> w.lz_info.State.li_transformed);
      u_copied_objects = copied;
    }
  in
  match run () with
  | timings ->
      (match !pass with
      | Some (Window w) ->
          (* the window stays open (and the txn with it): the scheduler
             sweeps it and finalize/rollback closes it *)
          vm.State.lazy_sweep <- Some (lazy_round w);
          vm.State.lazy_drain <- Some (lazy_drain_now w);
          if retain_log then
            vm.State.guard_retained <- Some w.lz_info.State.li_log;
          Jv_obs.Obs.emit obs ~scope:"core.lazy" "lazy.window.open"
            [ ("epoch", Jv_obs.Obs.Int w.lz_info.State.li_epoch) ]
      | Some (Collected ctx) when retain_log ->
          Txn.commit_retaining vm txn ~update_log:ctx.log
      | _ -> Txn.commit vm txn);
      Ok timings
  | exception e ->
      let reason, cause, killed_at =
        match e with
        | Update_error m -> (m, C_generic, None)
        | Update_failure (cause, m) -> (m, cause, None)
        | Faults.Injected pt -> ("injected fault at " ^ pt, C_injected pt, None)
        | Faults.Killed pt -> ("VM killed at " ^ pt, C_injected pt, Some pt)
        | Interp.Sync_trap m -> ("transformer trap: " ^ m, C_generic, None)
        | Jv_vm.Jit.Compile_error m -> ("jit: " ^ m, C_generic, None)
        | Classloader.Load_error errs ->
            ("load: " ^ String.concat "; " errs, C_generic, None)
        | e ->
            (* unrecoverable VM conditions (e.g. to-space overflow
               mid-collection) are outside the fault model *)
            Txn.commit vm txn;
            raise e
      in
      let rt0 = now () in
      let log =
        match !pass with
        | Some (Collected ctx) ->
            release_engine vm ctx.engine;
            ctx.log
        | Some (Window w) ->
            (* a lazy commit that failed before opening the window: the
               world never resumed, so the pairs made so far roll back
               exactly like an eager log *)
            close_window vm w
        | None -> [||]
      in
      (* the log may still be rooted (the transformers failed, or a guard
         window was to retain it): unroot it before the rollback's
         redirect collection, or the redirect would rewrite the log's own
         slots *)
      if Array.length log > 0 then unroot vm log;
      List.iter (fun restore -> restore ()) !frame_snaps;
      let undone = try_rollback ~update_log:log vm txn in
      Option.iter (fun pt -> vm.State.killed <- Some pt) killed_at;
      let rolled_back, note, rollback_ms =
        finish_rollback vm txn ~undone
          ~scrub:(lazy_mode && Array.length log > 0)
          ~t0:rt0 ~scope:"core.update" ~event:"update.rollback" ~reason
          ~pre:[ ("phase", Jv_obs.Obs.Str (phase_to_string !phase)) ]
          ~post:[]
      in
      Error
        {
          a_phase = !phase;
          a_reason = reason ^ note;
          a_cause = cause;
          a_rolled_back = rolled_back;
          a_rollback_ms = rollback_ms;
        }
