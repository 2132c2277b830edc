(* Heap, value encoding, and collector tests — including the property that
   a collection preserves the reachable object graph exactly, and that the
   transforming collection implements the paper's update-log protocol. *)

module VM = Jv_vm
module CF = Jv_classfile

(* --- value encoding -------------------------------------------------------- *)

let encoding_basics () =
  Alcotest.(check bool) "null" true (VM.Value.is_null VM.Value.null);
  Alcotest.(check int) "int round trip" (-42)
    (VM.Value.to_int (VM.Value.of_int (-42)));
  Alcotest.(check bool) "true" true (VM.Value.to_bool (VM.Value.of_bool true));
  Alcotest.(check int) "ref round trip" 17
    (VM.Value.to_ref (VM.Value.of_ref 17));
  Alcotest.(check bool) "ref is not int" false
    (VM.Value.is_int (VM.Value.of_ref 8));
  Alcotest.(check bool) "int is not ref" false
    (VM.Value.is_ref (VM.Value.of_int 8));
  Alcotest.check_raises "ref 0 rejected"
    (Invalid_argument "Value.of_ref: non-positive address") (fun () ->
      ignore (VM.Value.of_ref 0))

let encoding_qcheck =
  QCheck.Test.make ~name:"int encoding is invertible and tagged"
    ~count:1000
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun i ->
      let w = VM.Value.of_int i in
      VM.Value.is_int w
      && (not (VM.Value.is_ref w))
      && VM.Value.to_int w = i)

let ref_qcheck =
  QCheck.Test.make ~name:"ref encoding is invertible and tagged" ~count:1000
    QCheck.(int_range 1 1_000_000_000)
    (fun a ->
      let w = VM.Value.of_ref a in
      VM.Value.is_ref w
      && (not (VM.Value.is_int w))
      && (not (VM.Value.is_null w))
      && VM.Value.to_ref w = a)

(* --- a VM with two tiny classes for heap games ----------------------------- *)

let node_prog =
  {|
class Node {
  int tag;
  Node left;
  Node right;
}
class Main { static void main() { } }
|}

let fresh_vm ?(heap_words = 1 lsl 16) () =
  let vm =
    VM.Vm.create
      ~config:{ VM.State.default_config with VM.State.heap_words }
      ()
  in
  VM.Vm.boot vm (Jv_lang.Compile.compile_program node_prog);
  vm

let node_cls vm = VM.Rt.require_class vm.VM.State.reg "Node"

let set_field vm addr i v = VM.Heap.set vm.VM.State.heap ~addr ~off:(2 + i) v
let get_field vm addr i = VM.Heap.get vm.VM.State.heap ~addr ~off:(2 + i)

(* --- layout ------------------------------------------------------------------ *)

let object_layout () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  Alcotest.(check int) "size" 5 cls.VM.Rt.size_words;
  let a = VM.State.alloc_object vm cls in
  Alcotest.(check int) "class id" cls.VM.Rt.cid
    (VM.Heap.class_id vm.VM.State.heap a);
  (* fields default to null/zero *)
  Alcotest.(check int) "tag default" 0 (get_field vm a 0);
  Alcotest.(check int) "left default" 0 (get_field vm a 1)

let array_layout () =
  let vm = fresh_vm () in
  let a = VM.State.alloc_array vm ~len:7 in
  Alcotest.(check int) "length" 7 (VM.Heap.array_length vm.VM.State.heap a);
  Alcotest.(check int) "array class" vm.VM.State.array_cid
    (VM.Heap.class_id vm.VM.State.heap a)

let string_objects () =
  let vm = fresh_vm () in
  let a = VM.State.alloc_string vm "hello" in
  Alcotest.(check string) "content" "hello" (VM.State.string_of_obj vm a);
  (* interning: same sid for equal strings *)
  let b = VM.State.alloc_string vm "hello" in
  Alcotest.(check int) "same sid"
    (VM.Heap.get vm.VM.State.heap ~addr:a ~off:2)
    (VM.Heap.get vm.VM.State.heap ~addr:b ~off:2)

(* --- plain collection --------------------------------------------------------- *)

(* Build a random object graph from OCaml, collect, and check isomorphism
   by structural walk. *)
let build_graph vm n seed =
  let cls = node_cls vm in
  let rng = ref seed in
  let next m =
    rng := (!rng * 1103515245) + 12345;
    abs !rng mod m
  in
  let addrs = Array.init n (fun _ -> VM.State.alloc_object vm cls) in
  Array.iteri
    (fun i a ->
      set_field vm a 0 (VM.Value.of_int i);
      if next 4 > 0 then
        set_field vm a 1 (VM.Value.of_ref addrs.(next n));
      if next 4 > 0 then
        set_field vm a 2 (VM.Value.of_ref addrs.(next n)))
    addrs;
  (* root: a static slot pointing at node 0, plus an extra-roots array
     covering a few others *)
  let root_arr = Array.map (fun a -> VM.Value.of_ref a) addrs in
  vm.VM.State.extra_roots <- [ root_arr ];
  root_arr

(* structural signature of the reachable graph: DFS with visit order *)
let signature vm root_arr =
  let visited = Hashtbl.create 64 in
  let out = Buffer.create 256 in
  let rec go w =
    if VM.Value.is_null w then Buffer.add_string out "_"
    else begin
      let a = VM.Value.to_ref w in
      match Hashtbl.find_opt visited a with
      | Some id -> Buffer.add_string out (Printf.sprintf "#%d" id)
      | None ->
          let id = Hashtbl.length visited in
          Hashtbl.add visited a id;
          Buffer.add_string out
            (Printf.sprintf "(%d:" (VM.Value.to_int (get_field vm a 0)));
          go (get_field vm a 1);
          Buffer.add_char out ',';
          go (get_field vm a 2);
          Buffer.add_char out ')'
    end
  in
  Array.iter go root_arr;
  Buffer.contents out

let gc_preserves_graph () =
  let vm = fresh_vm () in
  let roots = build_graph vm 200 42 in
  let before = signature vm roots in
  let r1 = VM.Gc.collect vm in
  let mid = signature vm roots in
  Alcotest.(check string) "after one GC" before mid;
  Alcotest.(check int) "no transforms" 0 r1.VM.Gc.transformed_objects;
  ignore (VM.Gc.collect vm);
  Alcotest.(check string) "after two GCs" before (signature vm roots)

let gc_preserves_graph_qcheck =
  QCheck.Test.make ~name:"GC preserves random object graphs" ~count:25
    QCheck.(pair (int_range 1 300) (int_range 0 10_000))
    (fun (n, seed) ->
      let vm = fresh_vm () in
      let roots = build_graph vm n seed in
      let before = signature vm roots in
      ignore (VM.Gc.collect vm);
      String.equal before (signature vm roots))

let gc_reclaims_garbage () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  (* allocate unreachable objects *)
  for _ = 1 to 1000 do
    ignore (VM.State.alloc_object vm cls)
  done;
  let used_before = VM.Heap.words_used vm.VM.State.heap in
  ignore (VM.Gc.collect vm);
  let used_after = VM.Heap.words_used vm.VM.State.heap in
  Alcotest.(check bool) "reclaimed" true (used_after < used_before / 10)

(* Collections zero only the idle space's used extent; the words past it
   must still be zero, or fresh objects would not start at default values.
   Live sets grow and shrink across cycles, so the extents differ. *)
let gc_leaves_idle_space_zeroed () =
  let vm = fresh_vm ~heap_words:8192 () in
  let heap = vm.VM.State.heap in
  let cls = node_cls vm in
  let keep = ref [] in
  for cycle = 1 to 12 do
    let n = if cycle mod 3 = 0 then 10 else 150 + (40 * cycle) in
    for i = 1 to n do
      let a = VM.State.alloc_object vm cls in
      set_field vm a 0 (VM.Value.of_int (i + cycle));
      set_field vm a 1 (VM.Value.of_ref a);
      if i mod 4 = 0 then keep := a :: !keep
    done;
    let roots =
      Array.of_list
        (List.filteri (fun i _ -> i < 8 * cycle) (List.map VM.Value.of_ref !keep))
    in
    vm.VM.State.extra_roots <- [ roots ];
    ignore (VM.Gc.collect vm);
    keep := List.map VM.Value.to_ref (Array.to_list roots);
    Alcotest.(check bool)
      (Printf.sprintf "idle space zero after cycle %d" cycle)
      true
      (Array.for_all (( = ) 0) heap.VM.Heap.other);
    let fresh = VM.State.alloc_object vm cls in
    Alcotest.(check (list int)) "fresh object starts at defaults" [ 0; 0; 0 ]
      (List.init 3 (get_field vm fresh))
  done

let gc_rewrites_thread_roots () =
  (* a local variable holding a reference must still point at the moved
     object after collection *)
  let vm =
    Helpers.run_source ~rounds:30
      {|
class Box { int v; }
class Main {
  static void main() {
    Box b = new Box();
    b.v = 99;
    int i = 0;
    while (i < 2000) { String s = "x" + i; i = i + 1; }
    Sys.println("v=" + b.v);
  }
}
|}
  in
  let stats = VM.Vm.stats vm in
  Alcotest.(check bool) "collected at least once" true
    (stats.VM.Vm.gc_count >= 0);
  if not (Helpers.contains (VM.Vm.output vm) "v=99") then
    Alcotest.fail "reference broken across GC"

(* --- transforming collection ---------------------------------------------------- *)

let transform_plan_log () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  (* a second class to transmute into, with one extra field *)
  let wide =
    VM.Rt.install_class vm.VM.State.reg
      ~defn:
        {
          CF.Cls.c_name = "WideNode";
          c_super = CF.Types.object_class;
          c_fields =
            [
              { CF.Cls.fd_name = "tag"; fd_ty = CF.Types.TInt;
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "left"; fd_ty = CF.Types.TRef "WideNode";
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "right"; fd_ty = CF.Types.TRef "WideNode";
                fd_access = CF.Access.make () };
              { CF.Cls.fd_name = "extra"; fd_ty = CF.Types.TInt;
                fd_access = CF.Access.make () };
            ];
          c_methods = [];
        }
      ~alloc_static:(fun () -> VM.State.alloc_jtoc_slot vm)
      ~replace:false
  in
  let roots = build_graph vm 50 7 in
  let plan = Hashtbl.create 4 in
  Hashtbl.replace plan cls.VM.Rt.cid wide.VM.Rt.cid;
  let r = VM.Gc.collect ~plan vm in
  Alcotest.(check int) "all 50 transformed" 50 r.VM.Gc.transformed_objects;
  Alcotest.(check int) "log has 50 pairs" 100
    (Array.length r.VM.Gc.update_log);
  (* every root now points at a zeroed new-class object; the old copies in
     the log still carry the data *)
  Array.iter
    (fun w ->
      let a = VM.Value.to_ref w in
      Alcotest.(check int) "new class" wide.VM.Rt.cid
        (VM.Heap.class_id vm.VM.State.heap a);
      Alcotest.(check int) "fields zeroed" 0 (get_field vm a 0))
    roots;
  for i = 0 to (Array.length r.VM.Gc.update_log / 2) - 1 do
    (* the log holds encoded reference words *)
    let old_copy = VM.Value.to_ref r.VM.Gc.update_log.(2 * i) in
    let nw = VM.Value.to_ref r.VM.Gc.update_log.((2 * i) + 1) in
    Alcotest.(check int) "old copy keeps class" cls.VM.Rt.cid
      (VM.Heap.class_id vm.VM.State.heap old_copy);
    Alcotest.(check int) "pair linked" wide.VM.Rt.cid
      (VM.Heap.class_id vm.VM.State.heap nw);
    (* old copies' reference fields were forwarded to the NEW versions *)
    let l = get_field vm old_copy 1 in
    if VM.Value.is_ref l then
      Alcotest.(check int) "old field points at transformed peer"
        wide.VM.Rt.cid
        (VM.Heap.class_id vm.VM.State.heap (VM.Value.to_ref l))
  done

let heap_exhaustion () =
  let vm = fresh_vm ~heap_words:256 () in
  let cls = node_cls vm in
  (* keep everything alive via extra roots so the collection cannot help *)
  let keep = Array.make 64 0 in
  vm.VM.State.extra_roots <- [ keep ];
  match
    for i = 0 to 63 do
      keep.(i) <- VM.Value.of_ref (VM.State.alloc_object vm cls)
    done
  with
  | () -> Alcotest.fail "expected out-of-memory"
  | exception VM.State.Vm_fatal msg ->
      if not (Helpers.contains msg "out of memory") then
        Alcotest.failf "unexpected fatal: %s" msg

(* --- mixed-epoch collection ---------------------------------------------------

   During a lazy update window the heap holds objects of two epochs plus
   the window's own bookkeeping (lazy-forward markers, pristine-copy
   tags), and allocation does not stop.  A collection in that state must
   preserve every epoch tag verbatim, forward objects of both epochs,
   chase lazy-forward markers out of every surviving reference, and keep
   copy tags on retained copies. *)
let mixed_epoch_collection () =
  let vm = fresh_vm () in
  let cls = node_cls vm in
  let heap = vm.VM.State.heap in
  let gcw a = VM.Heap.get heap ~addr:a ~off:VM.Heap.off_gc in
  (* two objects born before the epoch bump, one after *)
  let old1 = VM.State.alloc_object vm cls in
  let old2 = VM.State.alloc_object vm cls in
  heap.VM.Heap.epoch <- 7;
  let fresh = VM.State.alloc_object vm cls in
  Alcotest.(check int) "pre-bump tag" 0 (gcw old1);
  Alcotest.(check int) "post-bump tag" 7 (gcw fresh);
  set_field vm old1 0 (VM.Value.of_int 1);
  set_field vm old2 0 (VM.Value.of_int 2);
  set_field vm fresh 0 (VM.Value.of_int 3);
  (* cross-epoch edges both ways *)
  set_field vm fresh 1 (VM.Value.of_ref old1);
  set_field vm old1 1 (VM.Value.of_ref fresh);
  set_field vm old1 2 (VM.Value.of_ref old2);
  (* old2 has been lazily transformed: its replacement is current-epoch,
     the original carries a forward marker, the pristine copy its tag *)
  let repl = VM.State.alloc_object vm cls in
  set_field vm repl 0 (VM.Value.of_int 99);
  let copy = VM.State.alloc_object vm cls in
  set_field vm copy 0 (VM.Value.of_int 2);
  VM.Heap.set heap ~addr:copy ~off:VM.Heap.off_gc
    (VM.Heap.make_copy_tag (gcw old2));
  VM.Heap.set heap ~addr:old2 ~off:VM.Heap.off_gc
    (VM.Heap.make_lazy_fwd repl);
  let roots =
    [|
      VM.Value.of_ref old1;
      VM.Value.of_ref fresh;
      VM.Value.of_ref copy;
      VM.Value.of_ref old2 (* a root that still aims at the marker *);
    |]
  in
  vm.VM.State.extra_roots <- [ roots ];
  ignore (VM.Gc.collect vm);
  let old1' = VM.Value.to_ref roots.(0) in
  let fresh' = VM.Value.to_ref roots.(1) in
  let copy' = VM.Value.to_ref roots.(2) in
  let via_marker = VM.Value.to_ref roots.(3) in
  (* epoch tags survive the copy verbatim, for both epochs *)
  Alcotest.(check int) "old epoch tag preserved" 0 (gcw old1');
  Alcotest.(check int) "new epoch tag preserved" 7 (gcw fresh');
  (* values and cross-epoch edges intact *)
  Alcotest.(check int) "old payload" 1 (VM.Value.to_int (get_field vm old1' 0));
  Alcotest.(check int) "new payload" 3
    (VM.Value.to_int (get_field vm fresh' 0));
  Alcotest.(check int) "new->old edge" old1'
    (VM.Value.to_ref (get_field vm fresh' 1));
  Alcotest.(check int) "old->new edge" fresh'
    (VM.Value.to_ref (get_field vm old1' 1));
  (* every route to the marked object now lands on its replacement: the
     collection chased the marker out of the field and the root alike *)
  Alcotest.(check int) "field chased to replacement" 99
    (VM.Value.to_int (get_field vm (VM.Value.to_ref (get_field vm old1' 2)) 0));
  Alcotest.(check int) "root chased to replacement" 99
    (VM.Value.to_int (get_field vm via_marker 0));
  Alcotest.(check int) "replacement is current-epoch" 7 (gcw via_marker);
  (* the retained pristine copy keeps its tag (and the epoch under it) *)
  Alcotest.(check bool) "copy tag preserved" true
    (VM.Heap.is_copy_tag (gcw copy'));
  Alcotest.(check int) "copy tag epoch" 0
    (VM.Heap.copy_tag_epoch (gcw copy'));
  (* no marker survived the collection anywhere in the heap *)
  let scan = ref 1 in
  let markers = ref 0 in
  while !scan < heap.VM.Heap.free do
    let addr = !scan in
    let c = VM.Rt.class_by_id vm.VM.State.reg (VM.Heap.class_id heap addr) in
    let size =
      if c.VM.Rt.is_array then
        VM.Heap.array_header_words + VM.Heap.array_length heap addr
      else c.VM.Rt.size_words
    in
    if VM.Heap.is_lazy_fwd (gcw addr) then incr markers;
    scan := addr + size
  done;
  Alcotest.(check int) "zero surviving markers" 0 !markers

let suite =
  [
    Alcotest.test_case "value encoding" `Quick encoding_basics;
    QCheck_alcotest.to_alcotest encoding_qcheck;
    QCheck_alcotest.to_alcotest ref_qcheck;
    Alcotest.test_case "object layout" `Quick object_layout;
    Alcotest.test_case "array layout" `Quick array_layout;
    Alcotest.test_case "string objects" `Quick string_objects;
    Alcotest.test_case "gc preserves graph" `Quick gc_preserves_graph;
    QCheck_alcotest.to_alcotest gc_preserves_graph_qcheck;
    Alcotest.test_case "gc reclaims garbage" `Quick gc_reclaims_garbage;
    Alcotest.test_case "gc leaves the idle space zeroed" `Quick
      gc_leaves_idle_space_zeroed;
    Alcotest.test_case "gc rewrites thread roots" `Quick
      gc_rewrites_thread_roots;
    Alcotest.test_case "transform plan and update log" `Quick
      transform_plan_log;
    Alcotest.test_case "mixed-epoch collection" `Quick mixed_epoch_collection;
    Alcotest.test_case "heap exhaustion" `Quick heap_exhaustion;
  ]
