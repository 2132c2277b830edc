(* The last line of every run: one JSON object with exactly the keys
   correct, attempted, failed and metrics. *)

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [metrics]: (name, unit, value) *)
let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, value) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (number value)
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
