(* Self-tests of the benchmark's statistics and output conventions.
   Prints one PASS/FAIL line per check and, last, a sample result line
   for run.py to parse; returns the exit code. *)

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n" (if ok then "PASS" else "FAIL") what;
  if not ok then incr failures

let floats = List.map float_of_int

let run () =
  (* median and quartiles: the upper middle of an even-length sample, as
     bench/support.ml picks it *)
  check "median of [1;2;3;4] is 3 (upper middle)" (Stats.median (floats [ 4; 1; 3; 2 ]) = 3.0);
  check "median of [5;1;3] is 3" (Stats.median (floats [ 5; 1; 3 ]) = 3.0);
  check "median of one sample is that sample" (Stats.median [ 7.5 ] = 7.5);
  check "quartiles of 1..8 are (3, 5, 7)"
    (Stats.quartiles (floats [ 8; 7; 6; 5; 4; 3; 2; 1 ]) = (3.0, 5.0, 7.0));
  (* the percentile rule: the highest candidate with >= 10 samples beyond *)
  let upto n = floats (List.init n (fun i -> i + 1)) in
  check "19 samples: no percentile has 10 beyond it" (Stats.tail_percentile (upto 19) = None);
  (match Stats.tail_percentile (upto 40) with
  | Some t ->
      check "40 samples: p75 = 30 with 10 beyond"
        (t.Stats.t_pct = 75.0 && t.Stats.t_value = 30.0 && t.Stats.t_beyond = 10)
  | None -> check "40 samples: p75 = 30 with 10 beyond" false);
  (match Stats.tail_percentile (upto 100) with
  | Some t ->
      check "100 samples: p90 = 90 with 10 beyond"
        (t.Stats.t_pct = 90.0 && t.Stats.t_value = 90.0 && t.Stats.t_beyond = 10)
  | None -> check "100 samples: p90 = 90 with 10 beyond" false);
  (match Stats.tail_percentile (upto 1000) with
  | Some t ->
      check "1000 samples: p99 = 990 with 10 beyond"
        (t.Stats.t_pct = 99.0 && t.Stats.t_value = 990.0 && t.Stats.t_beyond = 10)
  | None -> check "1000 samples: p99 = 990 with 10 beyond" false);
  check "p99 of 999 samples is not supported (9 beyond)"
    (Stats.percentile_if_supported (upto 999) 99.0 = None);
  check "p99 of 1000 samples is 990" (Stats.percentile_if_supported (upto 1000) 99.0 = Some 990.0);
  (* failed_frac *)
  check "failed_frac with zero attempted is 0, not NaN"
    (Stats.failed_frac ~failed:0 ~attempted:0 = 0.0);
  check "failed_frac 1 of 4 is 0.25" (Stats.failed_frac ~failed:1 ~attempted:4 = 0.25);
  (* the JSON result line *)
  let line =
    Out.result_line ~correct:true ~attempted:3 ~failed:0
      [ ("pause_ms", "ms", 1.2034); ("setup_s", "s", 0.1 +. 0.2); ("alloc_mw", "Mwords", 42.0) ]
  in
  check "result line keys in order"
    (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
       line);
  check "values keep all their digits" (Out.number (0.1 +. 0.2) = "0.30000000000000004");
  check "whole values print without a fraction" (Out.number 42.0 = "42");
  check "non-finite values never print as numbers" (Out.number Float.nan = "null");
  check "strings are JSON-escaped" (Out.json_string "a\"b\\c" = "\"a\\\"b\\\\c\"");
  print_endline line;
  if !failures = 0 then 0 else 1
