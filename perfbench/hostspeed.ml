(* The host's speed during a run, measured by a fixed routine.

   On a shared host the same work takes up to a third longer in one
   minute than in the next, and the slowdown lasts long enough to move a
   whole run.  The benchmark times a fixed routine, which no change to
   the program can speed up, at most once a second outside every timed
   region, and reports each end-to-end time scaled by [reference_s]
   over the routine's median time in the run: the time the run would
   have taken on the reference host.  The routine mixes what the program
   does on the host: random reads and writes over memory larger than the
   caches, a hash table, and short-lived allocation.  Its array lives
   outside the OCaml heap and it allocates less than the minor heap
   holds, so, run on an empty minor heap, it adds nothing to
   [peak_heap_mw]. *)

(* The routine's usual median on the reference host, a 2-vCPU KVM
   guest. *)
let reference_s = 0.07
let min_interval_s = 1.0

let mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22)
let () = Bigarray.Array1.fill mem 1

let routine () =
  let n = Bigarray.Array1.dim mem in
  let j = ref 0 in
  for i = 0 to (1 lsl 21) - 1 do
    j := (!j + 40503 + Bigarray.Array1.unsafe_get mem (i land (n - 1))) land (n - 1);
    Bigarray.Array1.unsafe_set mem !j (Bigarray.Array1.unsafe_get mem !j + 1)
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i land 65535) (Some (i, string_of_int i))
  done;
  let l = ref [] in
  for i = 1 to 150_000 do
    l := (i, i) :: !l;
    if i land 4095 = 0 then l := []
  done

let samples = ref []
let last = ref neg_infinity

(* Time the routine, unless it ran less than [min_interval_s] ago;
   whether it ran. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  t0 -. !last >= min_interval_s
  && begin
       routine ();
       let t1 = Unix.gettimeofday () in
       samples := (t1 -. t0) :: !samples;
       last := t1;
       true
     end

(* The factor that turns a time measured in this run into reference-host
   time. *)
let factor () = if !samples = [] then 1.0 else reference_s /. Stats.median !samples
