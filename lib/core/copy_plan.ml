(* Copy plans: UPT default object transformers resolved to field offsets.

   A default [jvolveObject] only copies same-name same-type fields from
   the old copy into the zeroed new-layout object
   ([Transformers.default_copied_fields]).  Interpreting that body costs a sandboxed
   method call per object; the paper's JVOLVE pays no such price because
   Jikes JIT-compiles its transformers (§4.1).  Resolved once per update
   and class pair, the same body is a flat array of offsets the updater
   copies word by word.  Hand-written transformers (custom sources,
   object overrides, class transformers) still run in the interpreter. *)

module Rt = Jv_vm.Rt
module Heap = Jv_vm.Heap

(* new offset, old offset, new offset, old offset, ... *)
type t = int array

let of_pairs pairs : t =
  Array.of_list (List.concat_map (fun (d, s) -> [ d; s ]) pairs)

(* Resolve each field name in both layouts with the JIT's own first-match
   lookup, so [to.f = from.f] and the plan touch the same slots.  [None]
   when a name does not resolve: the caller keeps the interpreter, which
   reports the failure as before. *)
let of_fields ~(dst : Rt.rt_class) ~(src : Rt.rt_class) names : t option =
  let pairs =
    List.filter_map
      (fun f ->
        match (Rt.find_field_info dst f, Rt.find_field_info src f) with
        | Some d, Some s -> Some (d.Rt.fi_offset, s.Rt.fi_offset)
        | _ -> None)
      names
  in
  if List.compare_lengths pairs names = 0 then Some (of_pairs pairs)
  else None

(* The plan for the object transformer of the pair ([dst] the new class,
   [src] its renamed old version), when that transformer is the UPT
   default. *)
let for_default (spec : Spec.t) ~(dst : Rt.rt_class) ~(src : Rt.rt_class) :
    t option =
  let cls = dst.Rt.name in
  if
    Transformers.has_default_object_transformer spec ~cls
    && List.mem cls spec.Spec.diff.Diff.class_updates_closure
    && String.equal src.Rt.name
         (Spec.old_class_name ~tag:spec.Spec.version_tag cls)
  then of_fields ~dst ~src (Transformers.default_copied_fields spec ~cls)
  else None

let run (heap : Heap.t) (p : t) ~dst ~src =
  let space = heap.Heap.space in
  for k = 0 to (Array.length p / 2) - 1 do
    space.(dst + p.(2 * k)) <- space.(src + p.((2 * k) + 1))
  done

(* Number of fields a run copies. *)
let length (p : t) = Array.length p / 2
