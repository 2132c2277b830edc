(* Spans around the benchmark's own calls into each layer.

   Off (the default) a span is just the call.  On, every span records its
   name, host start and end, and the span open around it.  A span is
   named after its layer ("vm.gc"), or after the layer and the function
   when one layer has several timed calls ("fleet.round"); spans
   stay in memory and are written out once, when the run ends.  A
   layer's self time is its spans' durations minus the parts their child
   spans cover. *)

let on = ref false
let now = Unix.gettimeofday

type t = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable n : int;
  mutable stack : int list;
}

let spans =
  {
    names = Array.make 1024 "";
    starts = Array.make 1024 0.0;
    stops = Array.make 1024 0.0;
    parents = Array.make 1024 (-1);
    n = 0;
    stack = [];
  }

let grow () =
  let cap = 2 * Array.length spans.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 spans.n;
    b
  in
  spans.names <- extend spans.names "";
  spans.starts <- extend spans.starts 0.0;
  spans.stops <- extend spans.stops 0.0;
  spans.parents <- extend spans.parents (-1)

let open_span name =
  if spans.n = Array.length spans.names then grow ();
  let id = spans.n in
  spans.n <- id + 1;
  spans.names.(id) <- name;
  spans.parents.(id) <- (match spans.stack with p :: _ -> p | [] -> -1);
  spans.stack <- id :: spans.stack;
  spans.starts.(id) <- now ();
  id

let close_span id =
  spans.stops.(id) <- now ();
  match spans.stack with
  | top :: rest when top = id -> spans.stack <- rest
  | _ -> failwith "Trace: spans closed out of order"

let span name f =
  if not !on then f ()
  else begin
    let id = open_span name in
    match f () with
    | v ->
        close_span id;
        v
    | exception e ->
        close_span id;
        raise e
  end

let count () = spans.n

(* Host ms of every span called [name], oldest first. *)
let durations name =
  let acc = ref [] in
  for i = spans.n - 1 downto 0 do
    if spans.names.(i) = name then acc := ((spans.stops.(i) -. spans.starts.(i)) *. 1e3) :: !acc
  done;
  !acc

(* Per span name: (name, spans, total ms, self ms), in first-seen order. *)
let self_times () =
  let child_ms = Array.make spans.n 0.0 in
  for i = 0 to spans.n - 1 do
    let p = spans.parents.(i) in
    if p >= 0 then
      child_ms.(p) <- child_ms.(p) +. ((spans.stops.(i) -. spans.starts.(i)) *. 1e3)
  done;
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  for i = 0 to spans.n - 1 do
    let name = spans.names.(i) in
    let dur = (spans.stops.(i) -. spans.starts.(i)) *. 1e3 in
    let c, tot, self =
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
          order := name :: !order;
          (0, 0.0, 0.0)
    in
    Hashtbl.replace tbl name (c + 1, tot +. dur, self +. (dur -. child_ms.(i)))
  done;
  List.rev_map
    (fun name ->
      let c, tot, self = Hashtbl.find tbl name in
      (name, c, tot, self))
    !order

(* One JSON object per line: id, name, start/end (s, relative to the
   first span), parent id (-1 for a root) and the workload-run id. *)
let write ~path ~run_id =
  let oc = open_out path in
  let t0 = if spans.n > 0 then spans.starts.(0) else 0.0 in
  for i = 0 to spans.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"run\":%S}\n"
      i spans.names.(i)
      (spans.starts.(i) -. t0)
      (spans.stops.(i) -. t0)
      spans.parents.(i) run_id
  done;
  close_out oc
