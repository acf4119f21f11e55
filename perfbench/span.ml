(** Harness-side spans for the traced run.

    Every call the benchmark makes into a library layer is wrapped in
    [with_ name f].  With tracing off that is one branch and a direct
    call.  With tracing on, each span records its name, start and end
    (monotonic ns), the span that encloses it and the job it belongs to;
    spans stay in memory until the run ends.  Work too fine-grained for a
    span of its own (one force evaluation per lane) is [charge]d to the
    innermost open span instead, so its time leaves that span's self
    time and is billed to the charged name. *)

type t = {
  name : string;
  job : int;  (** job id, or -1 outside jobs (set-up, warm-up) *)
  parent : int;  (** index of the enclosing span, or -1 *)
  t0 : int64;
  mutable t1 : int64;
  mutable child_ns : int64;  (** time covered by child spans and charges *)
}

let on = ref false
let spans : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let job = ref (-1)

(* charged work, per name: (ns, calls) *)
let charged : (string, int64 ref * int ref) Hashtbl.t = Hashtbl.create 8

(* counts recorded at the same boundaries (traced run only) *)
let tallies : (string, float ref) Hashtbl.t = Hashtbl.create 16

let now = Lf_obs.Stats.now_ns

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  job := -1;
  Hashtbl.reset charged;
  Hashtbl.reset tallies

(** Add [v] to the named count (traced run only); outside jobs the
    count is kept as ["setup." ^ name]. *)
let tally name v =
  if !on then
    let name = if !job < 0 then "setup." ^ name else name in
    match Hashtbl.find_opt tallies name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add tallies name (ref v)

let tally_value name =
  match Hashtbl.find_opt tallies name with Some r -> !r | None -> 0.0

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let finish id =
  let s = !spans.(id) in
  s.t1 <- now ();
  stack := List.tl !stack;
  if s.parent >= 0 then begin
    let p = !spans.(s.parent) in
    p.child_ns <- Int64.add p.child_ns (Int64.sub s.t1 s.t0)
  end

let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let id =
      push { name; job = !job; parent; t0 = now (); t1 = 0L; child_ns = 0L }
    in
    stack := id :: !stack;
    match f () with
    | v ->
        finish id;
        v
    | exception e ->
        finish id;
        raise e
  end

(** Bill [ns] of work done inside the current span to [name]. *)
let charge name ns =
  (match Hashtbl.find_opt charged name with
  | Some (t, c) ->
      t := Int64.add !t ns;
      incr c
  | None -> Hashtbl.add charged name (ref ns, ref 1));
  match !stack with
  | [] -> ()
  | p :: _ ->
      let s = !spans.(p) in
      s.child_ns <- Int64.add s.child_ns ns

let charged_calls name =
  match Hashtbl.find_opt charged name with Some (_, c) -> !c | None -> 0

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)
let self s = Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) s.child_ns)

(** Self time (ns) summed per span name over the spans satisfying
    [keep], plus (with [charges]) the charged names. *)
let self_table ?(keep = fun _ -> true) ~charges () : (string * float) list =
  let tbl = Hashtbl.create 32 in
  let add name ns =
    Hashtbl.replace tbl name
      (ns +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
  in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if keep s then add s.name (self s)
  done;
  if charges then Hashtbl.iter (fun name (t, _) -> add name (Int64.to_float !t)) charged;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(** Total duration (ns) of the spans named [name] satisfying [keep]. *)
let total ?(keep = fun _ -> true) name =
  let acc = ref 0.0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name && keep s then acc := !acc +. dur s
  done;
  !acc

(** All spans as a Chrome/Perfetto trace-event JSON document
    (complete events, microsecond timestamps relative to the first
    span). *)
let write_perfetto path =
  let oc = open_out path in
  let base = if !count = 0 then 0L else !spans.(0).t0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
      s.name
      (match String.index_opt s.name '.' with
      | Some k -> String.sub s.name 0 k
      | None -> s.name)
      (Int64.to_float (Int64.sub s.t0 base) /. 1e3)
      (dur s /. 1e3) i s.parent s.job
  done;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
