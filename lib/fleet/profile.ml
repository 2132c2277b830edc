(* Application profiles: everything the fleet needs to know to run one of
   the benchmark servers as a load-balanced backend — which port the load
   balancer fronts, the scripted client session, the response classifier,
   and the health probe added for orchestration (apps answer it in every
   version, so it works across an update).

   minimail serves SMTP and POP3; the fleet fronts the SMTP side only
   (one load-balancer endpoint per fleet), and the health probe goes to
   the same port. *)

module CF = Jv_classfile
module Apps = Jv_apps

type t = {
  pr_name : string;
  pr_versioned : Apps.Patching.versioned;
  pr_port : int; (* backend port the load balancer connects to *)
  pr_script : string list; (* one client session *)
  pr_ok : string -> bool; (* is this response healthy? *)
  pr_health_probe : string;
  pr_health_ok : string -> bool;
  pr_overrides : to_version:string -> Apps.Common.overrides;
  (* Optional durability hooks for stateful apps: serialize the live
     state of a running VM, and replay a serialized snapshot into a
     freshly booted base-version VM (the supervisor migrates the data
     forward through missed schema hops afterwards).  The serialized
     form is opaque to the fleet layer. *)
  pr_snapshot : (Jv_vm.Vm.t -> (string, string) result) option;
  pr_restore : (Jv_vm.Vm.t -> string -> (unit, string) result) option;
}

let miniweb =
  {
    pr_name = "miniweb";
    pr_versioned = Apps.Miniweb.app;
    pr_port = Apps.Miniweb.protocol_port;
    pr_script = Apps.Workload.web_script;
    pr_ok = Apps.Workload.web_ok;
    pr_health_probe = Apps.Miniweb.health_probe;
    pr_health_ok = Apps.Miniweb.health_ok;
    pr_overrides = (fun ~to_version:_ -> Apps.Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let minimail =
  {
    pr_name = "minimail";
    pr_versioned = Apps.Minimail.app;
    pr_port = Apps.Minimail.smtp_port;
    pr_script = Apps.Workload.smtp_script;
    pr_ok = Apps.Workload.default_ok;
    pr_health_probe = Apps.Minimail.health_probe;
    pr_health_ok = Apps.Minimail.health_ok;
    pr_overrides = (fun ~to_version -> Apps.Minimail.overrides ~to_version);
    pr_snapshot = None;
    pr_restore = None;
  }

let miniftp =
  {
    pr_name = "miniftp";
    pr_versioned = Apps.Miniftp.app;
    pr_port = Apps.Miniftp.port;
    pr_script = Apps.Workload.ftp_script;
    pr_ok = Apps.Workload.default_ok;
    pr_health_probe = Apps.Miniftp.health_probe;
    pr_health_ok = Apps.Miniftp.health_ok;
    pr_overrides = (fun ~to_version:_ -> Apps.Common.no_overrides);
    pr_snapshot = None;
    pr_restore = None;
  }

let ministore =
  {
    pr_name = "ministore";
    pr_versioned = Apps.Ministore.app;
    pr_port = Apps.Ministore.port;
    pr_script = Apps.Workload.store_script;
    pr_ok = Apps.Workload.store_ok;
    pr_health_probe = Apps.Ministore.health_probe;
    pr_health_ok = Apps.Ministore.health_ok;
    pr_overrides = (fun ~to_version -> Apps.Ministore.overrides ~to_version);
    pr_snapshot =
      Some
        (fun vm ->
          Result.map Apps.Ministore.snapshot_to_string
            (Apps.Ministore.scrape vm));
    pr_restore =
      Some
        (fun vm str ->
          Result.bind (Apps.Ministore.snapshot_of_string str)
            (Apps.Ministore.restore vm));
  }

let all = [ miniweb; minimail; miniftp; ministore ]

let by_name name =
  List.find_opt (fun p -> p.pr_name = name) all

let versions p = List.map fst p.pr_versioned.Apps.Patching.versions

let source p ~version = Apps.Patching.source p.pr_versioned ~version

let compile p ~version =
  Jv_lang.Compile.compile_program (source p ~version)

(* Bind the profile's health probe, on the instance's own [port], to a
   guard config that names no probe; a config with a probe is kept. *)
let guard_config p ~deadline ~port (cfg : Jvolve_core.Guard.config) =
  if Option.is_some cfg.Jvolve_core.Guard.c_probe then cfg
  else
    let probe =
      Jvolve_core.Guard.probe_config ~every:20 ~deadline ~port
        ~line:p.pr_health_probe ~ok:p.pr_health_ok ()
    in
    { cfg with Jvolve_core.Guard.c_probe = Some probe }

(* Update targets compiled once per process, shared by every instance's
   spec (and by a supervisor's repeated catch-ups); programs are never
   mutated after compilation. *)
let compiled : (string * string, CF.Cls.t list) Hashtbl.t = Hashtbl.create 8

let compile_cached p ~version =
  let key = (p.pr_name, version) in
  match Hashtbl.find_opt compiled key with
  | Some prog -> prog
  | None ->
      let prog = compile p ~version in
      Hashtbl.replace compiled key prog;
      prog

(* The one update spec builder: instance [instance_id], running
   [old_program] at [from_version], to [to_version] with the app's own
   transformer overrides for that release.  Renamed old classes get a
   per-instance version tag so a fleet never collides: "514i3" =
   from-version 5.1.4 on instance 3. *)
let spec p ~instance_id ~from_version ~to_version ~old_program =
  Apps.Common.spec
    ~overrides:(p.pr_overrides ~to_version)
    ~version_tag:
      (Printf.sprintf "%si%d" (Apps.Common.version_tag from_version)
         instance_id)
    ~old_program
    ~new_program:(compile_cached p ~version:to_version)
    ()
