(* The benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--smoke] [--out DIR]

   Prints the provenance, any failure causes, and as its last line one
   JSON object {"correct", "attempted", "failed", "metrics"}.  Exit 0
   when the run completed (even with failed jobs), 2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (irregular-kernels|frontend-corpus|warm-sweep) \
     --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 in
  let trace = ref false and smoke = ref false in
  let out_dir = ref ".perfbench_out" in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w Harness.workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        seed := int n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := int n;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: d :: rest ->
        out_dir := d;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  if !seconds < 1 then usage ();
  print_endline ("provenance " ^ Lf_obs.Json.to_string (Prov.to_json ()));
  let r =
    Harness.run
      {
        Harness.workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        smoke = !smoke;
        out_dir = !out_dir;
      }
  in
  List.iter (fun n -> print_endline ("note " ^ n)) r.Harness.notes;
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Harness.correct r.Harness.attempted r.Harness.failed
    (String.concat ", " (List.map metric r.Harness.metrics))
