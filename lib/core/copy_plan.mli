(** Copy plans: UPT default object transformers resolved to field
    offsets, run by the updater in place of the interpreter.  Custom
    transformers, object overrides and class transformers are never
    planned: they still run sandboxed in the interpreter. *)

module Rt = Jv_vm.Rt
module Heap = Jv_vm.Heap

type t
(** Flattened (new offset, old offset) pairs. *)

val for_default : Spec.t -> dst:Rt.rt_class -> src:Rt.rt_class -> t option
(** The plan for the object transformer of [dst] (a layout-closure
    class) and [src] (its renamed old version), when that transformer is
    the UPT default ({!Transformers.has_default_object_transformer}).
    Field names resolve in both layouts with {!Rt.find_field_info}, the
    JIT's first-match lookup.  [None] otherwise, or if a name does not
    resolve. *)

val of_pairs : (int * int) list -> t
(** A plan from explicit (new offset, old offset) pairs. *)

val run : Heap.t -> t -> dst:int -> src:int -> unit
(** Copy every planned field of the object at [src] into the object at
    [dst]. *)

val length : t -> int
(** Fields copied per run. *)
