(* UPT transformer-generation tests (paper §2.3): old-class stubs, default
   transformer source, override splicing, and prepare-time failures. *)

module J = Jvolve_core
module CF = Jv_classfile
module VM = Jv_vm

let compile = Jv_lang.Compile.compile_program

let spec ?object_overrides ?class_overrides ?transformer_src ~tag v1 v2 =
  J.Spec.make ?object_overrides ?class_overrides
    ~transformer_src ~version_tag:tag ~old_program:(compile v1)
    ~new_program:(compile v2) ()

let v1 =
  {|
class Parent { int p; }
class User extends Parent {
  String name;
  int age;
  Gone buddy;
  Kept friend;
}
class Gone { int g; }
class Kept { int k; }
class Main { static void main() { } }
|}

(* Gone is deleted, User changes (age -> years), Kept survives unchanged *)
let v2 =
  {|
class Parent { int p; }
class User extends Parent {
  String name;
  int years;
  Kept friend;
}
class Kept { int k; }
class Main { static void main() { } }
|}

let stub_generation () =
  let s = spec ~tag:"9" v1 v2 in
  let stubs = J.Transformers.stubs_for s in
  let names = List.map (fun c -> c.CF.Cls.c_name) stubs in
  Alcotest.(check bool) "user stub" true (List.mem "v9_User" names);
  Alcotest.(check bool) "gone stub" true (List.mem "v9_Gone" names);
  let user = List.find (fun c -> c.CF.Cls.c_name = "v9_User") stubs in
  (* flattened layout: inherited Parent.p first, then declared fields *)
  Alcotest.(check (list string)) "flattened field order"
    [ "p"; "name"; "age"; "buddy"; "friend" ]
    (List.map (fun f -> f.CF.Cls.fd_name) user.CF.Cls.c_fields);
  (* methods are stripped: "the updated program may not call them" *)
  Alcotest.(check int) "no methods" 0 (List.length user.CF.Cls.c_methods);
  (* type mapping: deleted classes are renamed, surviving ones keep their
     (new) names *)
  let ty name =
    CF.Types.to_string
      (List.find (fun f -> f.CF.Cls.fd_name = name) user.CF.Cls.c_fields)
        .CF.Cls.fd_ty
  in
  Alcotest.(check string) "deleted class renamed" "v9_Gone" (ty "buddy");
  Alcotest.(check string) "kept class unrenamed" "Kept" (ty "friend");
  Alcotest.(check string) "string unrenamed" "String" (ty "name")

let default_source () =
  let s = spec ~tag:"9" v1 v2 in
  let src = J.Transformers.generate_source s in
  (* same-name same-type fields are copied; the changed one is not *)
  Alcotest.(check bool) "copies name" true
    (Helpers.contains src "to.name = from.name;");
  Alcotest.(check bool) "copies inherited p" true
    (Helpers.contains src "to.p = from.p;");
  Alcotest.(check bool) "copies friend" true
    (Helpers.contains src "to.friend = from.friend;");
  Alcotest.(check bool) "does not invent years" false
    (Helpers.contains src "to.years");
  Alcotest.(check bool) "has class transformer" true
    (Helpers.contains src "jvolveClass(User unused)");
  Alcotest.(check bool) "signature matches paper" true
    (Helpers.contains src "jvolveObject(User to, v9_User from)")

let default_compiles () =
  let s = spec ~tag:"9" v1 v2 in
  let p = J.Transformers.prepare s in
  Alcotest.(check string) "class name" "JvolveTransformers"
    p.J.Transformers.p_transformer.CF.Cls.c_name

let overrides_spliced () =
  let s =
    spec
      ~object_overrides:[ ("User", "    to.years = from.age;") ]
      ~class_overrides:[ ("User", "    Sys.println(\"migrating\");") ]
      ~tag:"9" v1 v2
  in
  let src = J.Transformers.generate_source s in
  Alcotest.(check bool) "object override used" true
    (Helpers.contains src "to.years = from.age;");
  Alcotest.(check bool) "default body replaced" false
    (Helpers.contains src "to.name = from.name;");
  Alcotest.(check bool) "class override used" true
    (Helpers.contains src "migrating");
  (* and the override must still compile *)
  ignore (J.Transformers.prepare s)

let custom_source_replaces_everything () =
  let src =
    {|
class JvolveTransformers {
  static void jvolveClass(User unused) { }
  static void jvolveObject(User to, v9_User from) {
    to.p = from.p;
    to.name = "renamed";
    to.years = from.age * 2;
  }
}
|}
  in
  let s = spec ~transformer_src:src ~tag:"9" v1 v2 in
  let p = J.Transformers.prepare s in
  Alcotest.(check string) "used verbatim" src p.J.Transformers.p_source

let prepare_failures () =
  (* missing transformer class *)
  (match
     J.Transformers.prepare
       (spec ~transformer_src:{|class NotTheRightName { }|} ~tag:"9" v1 v2)
   with
  | exception J.Transformers.Prepare_error e ->
      if not (Helpers.contains e "does not define") then
        Alcotest.failf "wrong error: %s" e
  | _ -> Alcotest.fail "expected prepare error");
  (* type errors in a custom transformer *)
  (match
     J.Transformers.prepare
       (spec
          ~transformer_src:
            {|class JvolveTransformers {
               static void jvolveObject(User to, v9_User from) {
                 to.nonexistent = 3;
               }
             }|}
          ~tag:"9" v1 v2)
   with
  | exception J.Transformers.Prepare_error e ->
      if not (Helpers.contains e "no field nonexistent") then
        Alcotest.failf "wrong error: %s" e
  | _ -> Alcotest.fail "expected prepare error");
  (* hierarchy permutation is rejected up front *)
  match
    J.Transformers.prepare
      (spec ~tag:"9" {|class A {} class B extends A {} class M { }|}
         {|class B {} class A extends B {} class M { }|})
  with
  | exception J.Transformers.Prepare_error e ->
      if not (Helpers.contains e "superclass") then
        Alcotest.failf "wrong error: %s" e
  | _ -> Alcotest.fail "expected prepare error"

(* transformer-mode compilation may read private fields of both versions *)
let transformer_accesses_private () =
  let v1p =
    {|class Secret { private int code; } class Main { static void main() {} }|}
  in
  let v2p =
    {|class Secret { private int code; private int extra; }
      class Main { static void main() {} }|}
  in
  let s =
    J.Spec.make
      ~object_overrides:
        [ ("Secret", "    to.code = from.code;\n    to.extra = from.code;") ]
      ~version_tag:"3" ~old_program:(compile v1p) ~new_program:(compile v2p)
      ()
  in
  ignore (J.Transformers.prepare s)

(* --- copy plans agree with the interpreter ------------------------------

   Default object transformers run as copy plans; the same update with
   its generated source handed back as a hand-written one runs them in
   the interpreter.  Both must leave the same heap, word for word. *)

(* Boot [v1], let main build its objects, update to [v2], let the new
   version run, drain a lazy window and collect. *)
let updated_vm ~lazy_mode ~interpreted ~tag v1 v2 =
  let config =
    {
      Helpers.test_config with
      VM.State.lazy_update = lazy_mode;
      lazy_sweep_budget = 8;
    }
  in
  let vm = VM.Vm.create ~config () in
  VM.Vm.boot vm (compile v1);
  ignore (VM.Vm.spawn_main vm ~main_class:"Main");
  VM.Vm.run vm ~rounds:5;
  let s = spec ~tag v1 v2 in
  let s = if interpreted then Helpers.interpreted_spec s else s in
  let h = J.Jvolve.update_now ~timeout_rounds:100 vm s in
  if not (J.Jvolve.succeeded h) then
    Alcotest.failf "update %s did not apply: %s" tag
      (J.Jvolve.outcome_to_string h.J.Jvolve.h_outcome);
  VM.Vm.run vm ~rounds:5;
  (match vm.VM.State.lazy_drain with
  | Some drain ->
      if not (drain vm) then Alcotest.failf "%s: lazy drain rolled back" tag
  | None -> ());
  ignore (VM.Gc.collect vm);
  vm

(* Check plan = interpreter eagerly and lazily; return the eager
   plan-run VM for field-level checks. *)
let plan_matches_interpreter ~tag v1 v2 =
  List.map
    (fun lazy_mode ->
      let what = tag ^ if lazy_mode then " lazy" else " eager" in
      let plan = updated_vm ~lazy_mode ~interpreted:false ~tag v1 v2 in
      let interp = updated_vm ~lazy_mode ~interpreted:true ~tag v1 v2 in
      Helpers.check_same_heap what interp plan;
      if not lazy_mode then
        Alcotest.(check bool)
          (what ^ ": plans ran instead of the interpreter") true
          (Helpers.transformer_steps plan < Helpers.transformer_steps interp);
      plan)
    [ false; true ]
  |> List.hd

let static_ref vm cname sname =
  let reg = vm.VM.State.reg in
  match VM.Rt.find_static_info reg (VM.Rt.require_class reg cname) sname with
  | Some si -> VM.Value.to_ref (VM.State.jtoc_get vm si.VM.Rt.si_slot)
  | None -> Alcotest.failf "no static %s.%s" cname sname

let field vm ~cls addr fname =
  match VM.Rt.find_field_info (VM.Rt.require_class vm.VM.State.reg cls) fname with
  | Some fi -> VM.Heap.get vm.VM.State.heap ~addr ~off:fi.VM.Rt.fi_offset
  | None -> Alcotest.failf "%s has no field %s" cls fname

(* Parent grows a field, so the inherited [p] keeps its offset while
   every User field after it moves; [age] changes type; [buddy] was
   typed with the deleted class Gone and now names Kept. *)
let directed_v1 =
  {|
class Parent { int p; }
class User extends Parent { String name; int age; Gone buddy; Kept friend; }
class Gone { int g; }
class Kept { int k; }
class Keeper {
  static User u;
  static void build() {
    User u = new User();
    u.p = 7; u.name = "ann"; u.age = 30;
    u.buddy = new Gone(); u.friend = new Kept();
    u.friend.k = 5;
    Keeper.u = u;
  }
}
class Main {
  static void main() {
    Keeper.build();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let directed_v2 =
  {|
class Parent { int p; int q; }
class User extends Parent { String name; String age; Kept buddy; Kept friend; }
class Kept { int k; }
class Keeper { static User u; static void build() { } }
class Main {
  static void main() {
    Keeper.build();
    for (int i = 0; i < 2000; i = i + 1) { Thread.yieldNow(); }
  }
}
|}

let plan_directed_cases () =
  let s = spec ~tag:"cp" directed_v1 directed_v2 in
  Alcotest.(check (list string))
    "copied fields" [ "p"; "name"; "friend" ]
    (J.Transformers.default_copied_fields s ~cls:"User");
  let vm = plan_matches_interpreter ~tag:"cp" directed_v1 directed_v2 in
  let u = static_ref vm "Keeper" "u" in
  let f = field vm ~cls:"User" u in
  Alcotest.(check int) "inherited field copied" 7 (VM.Value.to_int (f "p"));
  Alcotest.(check int) "new inherited field zero" 0 (f "q");
  Alcotest.(check string) "moved field copied" "ann"
    (VM.State.string_of_obj vm (VM.Value.to_ref (f "name")));
  Alcotest.(check int) "retyped field zero" 0 (f "age");
  Alcotest.(check int) "field of a deleted class's type zero" 0 (f "buddy");
  Alcotest.(check int) "reference field copied" 5
    (VM.Value.to_int (field vm ~cls:"Kept" (VM.Value.to_ref (f "friend")) "k"))

(* The Table 1 micro-heap (paper §4.1): Change gains [d]; a, b, c and
   the references are copied, d stays zero, NoChange is untouched. *)
let table1_v1 =
  {|
class Holder { int x; }
class Change { int a; int b; int c; Holder r1; Holder r2; Holder r3; }
class NoChange { int a; int b; int c; Holder r1; Holder r2; Holder r3; }
class Root { static Change[] cs; static NoChange[] ns; }
class Main {
  static void main() {
    Root.cs = new Change[300];
    Root.ns = new NoChange[300];
    for (int i = 0; i < 300; i = i + 1) {
      Change c = new Change();
      c.a = i; c.b = 2 * i; c.c = 3 * i;
      if (i % 3 == 0) { c.r1 = new Holder(); c.r1.x = i; }
      Root.cs[i] = c;
      NoChange n = new NoChange();
      n.a = i;
      Root.ns[i] = n;
    }
    for (int j = 0; j < 2000; j = j + 1) { Thread.yieldNow(); }
  }
}
|}

let table1_v2 =
  Jv_apps.Patching.patch table1_v1
    [
      ( "class Change { int a; int b; int c;",
        "class Change { int a; int b; int c; int d;" );
    ]

let plan_table1_heap () =
  let vm = plan_matches_interpreter ~tag:"t1" table1_v1 table1_v2 in
  let cs = static_ref vm "Root" "cs" in
  for i = 0 to 299 do
    let c =
      VM.Value.to_ref
        (VM.Heap.get vm.VM.State.heap ~addr:cs
           ~off:(VM.Heap.array_header_words + i))
    in
    let f = field vm ~cls:"Change" c in
    if
      VM.Value.to_int (f "a") <> i
      || VM.Value.to_int (f "b") <> 2 * i
      || VM.Value.to_int (f "c") <> 3 * i
      || f "d" <> 0
    then Alcotest.failf "Change[%d] not transformed by the default" i;
    if i mod 3 = 0 then
      Alcotest.(check int) "holder kept" i
        (VM.Value.to_int
           (field vm ~cls:"Holder" (VM.Value.to_ref (f "r1")) "x"))
  done

let suite =
  [
    Alcotest.test_case "stub generation" `Quick stub_generation;
    Alcotest.test_case "default source" `Quick default_source;
    Alcotest.test_case "default compiles" `Quick default_compiles;
    Alcotest.test_case "overrides spliced" `Quick overrides_spliced;
    Alcotest.test_case "custom source verbatim" `Quick
      custom_source_replaces_everything;
    Alcotest.test_case "prepare failures" `Quick prepare_failures;
    Alcotest.test_case "transformer reads privates" `Quick
      transformer_accesses_private;
    Alcotest.test_case "copy plan = interpreter: directed fields" `Quick
      plan_directed_cases;
    Alcotest.test_case "copy plan = interpreter: Table 1 micro-heap" `Quick
      plan_table1_heap;
  ]
