(** The measuring loop: set up, run one untimed warm-up round, then a
    fixed number of identical rounds of the workload's fixed job list
    (with the further set-up repetitions spread among them), timing each
    job from outside and checking it after the clock stops.  The number of rounds is a function of [--seconds]
    alone (never of elapsed time), so the job mix and every simulated
    count repeat exactly from run to run. *)

type workload = Irregular | Corpus | Sweep

let workloads =
  [ ("irregular-kernels", Irregular); ("frontend-corpus", Corpus); ("warm-sweep", Sweep) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type cfg = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;  (** tiny sizes, two rounds *)
  out_dir : string;
}

(* Nominal seconds per measured round on the reference host (README):
   [--seconds s] runs round(s / nominal) rounds. *)
let nominal_round_s = function Irregular -> 2.1 | Corpus -> 0.7 | Sweep -> 0.09

(* Set-up repetitions: [setup_s] is their median.  More where set-up
   is short. *)
let setup_reps cfg =
  if cfg.smoke then 1 else match cfg.workload with Irregular -> 3 | _ -> 7

(* A fixed job list; for [Batch] workloads, which jobs of a round are
   the first use of their cache key. *)
type prepared = {
  jobs : Job.t array;
  cold : bool array option;
}

let prepare cfg : prepared =
  let seed = cfg.seed in
  match cfg.workload with
  | Irregular ->
      let size = if cfg.smoke then Irregular.smoke else Irregular.full in
      let st = Irregular.setup size ~seed in
      { jobs = Array.of_list (Irregular.prepare size st); cold = None }
  | Corpus ->
      let nests = if cfg.smoke then Corpus.smoke else Corpus.full in
      { jobs = Array.of_list (Corpus.prepare (Corpus.setup nests ~seed)); cold = None }
  | Sweep ->
      let size = if cfg.smoke then Sweep.smoke else Sweep.full in
      let st = Sweep.setup size ~seed in
      let jobs, cold = List.split (Sweep.prepare size st) in
      { jobs = Array.of_list jobs; cold = Some (Array.of_list cold) }

let now_s () = Int64.to_float (Span.now ()) /. 1e9

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Linear-interpolated percentile (numpy's default), [q] in [0, 1]. *)
let percentile (sorted : float array) q =
  let n = Array.length sorted in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.of_int (truncate h)) in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* Per-run totals over the measured jobs.  Only wall times are kept one
   by one, for the percentiles, in a bigarray outside the OCaml heap, so
   that [peak_heap_mb] does not count them. *)
type totals = {
  mutable n : int;
  mutable wall_s : float;
  mutable cpu_s : float;
  mutable steps : float;
  mutable lane_slots : float;
  mutable busy : float;
  mutable frontend : float;
  mutable reductions : float;
  mutable minor_w : float;
  mutable promoted_w : float;
  mutable majors : float;
  mutable cold_s : float;  (** wall time of first uses of a cache key *)
  mutable cold_n : int;
  mutable heap_w : int;  (** largest major heap seen after a job *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** failure causes and oracle disagreements *)
}

let stats_counters =
  [
    "dispatch.assign"; "dispatch.call"; "dispatch.where"; "dispatch.while";
    "dispatch.reduce"; "dispatch.frontend"; "mask.empty"; "mask.q1"; "mask.q2";
    "mask.q3"; "mask.q4"; "mask.full"; "opt.fused_regions"; "opt.fused_region_runs";
    "opt.fused_reductions"; "opt.full_mask_stmts"; "opt.accum_marks";
    "opt.scratch_reused"; "opt.short_circuits"; "cache.hits"; "cache.misses";
    "cache.evictions";
  ]

let is_probe name = String.starts_with ~prefix:"probe." name

(* Largest share of job wall time the traced run may leave outside the
   layers' self times before it says so. *)
let tieout_tolerance_pct = 2.0

let snapshot () =
  let snap = Lf_obs.Stats.snapshot () in
  List.map (fun k -> (k, Option.value ~default:0 (List.assoc_opt k snap))) stats_counters

let run cfg : result =
  let notes = ref [] in
  let note s = if not (List.mem s !notes) then notes := s :: !notes in
  let correct = ref true in
  Span.reset ();
  Span.on := cfg.trace;
  let reps = setup_reps cfg in
  let setup_times = ref [] in
  let timed_setup () =
    Span.job := -1;
    Gc.full_major ();
    let t0 = now_s () in
    let p = Span.with_ "setup" (fun () -> prepare cfg) in
    setup_times := (now_s () -. t0) :: !setup_times;
    p
  in
  let pr = timed_setup () in
  let per_round = Array.length pr.jobs in
  let rounds =
    if cfg.smoke then 2
    else
      let by_time =
        int_of_float (Float.round (float_of_int cfg.seconds /. nominal_round_s cfg.workload))
      in
      max by_time ((100 + per_round - 1) / per_round)
  in
  let outcome_of (j : Job.t) (r : Job.result) =
    match r.Job.check () with
    | Job.Pass -> `Pass
    | Job.Fault why ->
        note (j.Job.label ^ ": " ^ why);
        `Fault
    | Job.Wrong why ->
        correct := false;
        note why;
        `Wrong
  in
  let guard (j : Job.t) f =
    try f () with e ->
      correct := false;
      note (Printf.sprintf "%s raised %s" j.Job.label (Printexc.to_string e));
      None
  in
  (* warm-up: every job once, untimed but checked *)
  Span.on := false;
  Array.iter
    (fun (j : Job.t) ->
      ignore (guard j (fun () -> ignore (outcome_of j (j.Job.exec ())); Some ())))
    pr.jobs;
  Span.on := cfg.trace;
  if cfg.trace then begin
    Lf_obs.Stats.reset ();
    Lf_obs.Stats.enable ()
  end;
  (* The other set-up repetitions are spread over the measured rounds,
     so that [setup_s] samples the same stretch of host time as the
     jobs; each is discarded and its garbage collected untimed. *)
  let setup_after = List.init (reps - 1) (fun i -> (i + 1) * rounds / reps) in
  let interleaved_setups round =
    List.iter
      (fun r ->
        if r = round then begin
          Lf_obs.Stats.disable ();
          ignore (timed_setup ());
          Gc.full_major ();
          if cfg.trace then Lf_obs.Stats.enable ()
        end)
      setup_after
  in
  let stats0 = if cfg.trace then snapshot () else [] in
  let t =
    {
      n = 0; wall_s = 0.0; cpu_s = 0.0; steps = 0.0; lane_slots = 0.0; busy = 0.0;
      frontend = 0.0; reductions = 0.0; minor_w = 0.0; promoted_w = 0.0;
      majors = 0.0; cold_s = 0.0; cold_n = 0; heap_w = 0;
    }
  in
  let walls = Bigarray.(Array1.create float64 c_layout (rounds * per_round)) in
  let failed = ref 0 in
  let job_id = ref 0 in
  for round = 1 to rounds do
    Array.iteri
      (fun index (j : Job.t) ->
        Span.job := !job_id;
        incr job_id;
        let g0 = if cfg.trace then Some (Gc.quick_stat ()) else None in
        let c0 = Sys.time () in
        let t0 = Span.now () in
        let r = guard j (fun () -> Some (Span.with_ "job" j.Job.exec)) in
        let t1 = Span.now () in
        let c1 = Sys.time () in
        let g1 = if cfg.trace then Some (Gc.quick_stat ()) else None in
        let wall = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
        t.heap_w <- max t.heap_w (Gc.quick_stat ()).Gc.heap_words;
        match r with
        | None -> ()
        | Some r ->
            (match guard j (fun () -> Some (outcome_of j r)) with
            | Some `Fault -> incr failed
            | _ -> ());
            let get f =
              match r.Job.metrics with Some m -> float_of_int (f m) | None -> 0.0
            in
            let gd f = match (g0, g1) with Some a, Some b -> f b -. f a | _ -> 0.0 in
            walls.{t.n} <- wall *. 1e3;
            t.n <- t.n + 1;
            t.wall_s <- t.wall_s +. wall;
            t.cpu_s <- t.cpu_s +. (c1 -. c0);
            t.steps <- t.steps +. get (fun m -> m.Lf_simd.Metrics.steps);
            t.lane_slots <- t.lane_slots +. get (fun m -> m.Lf_simd.Metrics.lane_slots);
            t.busy <- t.busy +. get (fun m -> m.Lf_simd.Metrics.busy_lanes);
            t.frontend <- t.frontend +. get (fun m -> m.Lf_simd.Metrics.frontend_steps);
            t.reductions <- t.reductions +. get (fun m -> m.Lf_simd.Metrics.reductions);
            t.minor_w <- t.minor_w +. gd (fun g -> g.Gc.minor_words);
            t.promoted_w <- t.promoted_w +. gd (fun g -> g.Gc.promoted_words);
            t.majors <- t.majors +. gd (fun g -> float_of_int g.Gc.major_collections);
            match pr.cold with
            | Some c when c.(index) ->
                t.cold_s <- t.cold_s +. wall;
                t.cold_n <- t.cold_n + 1
            | _ -> ())
      pr.jobs;
    interleaved_setups round
  done;
  Span.job := -1;
  let stats1 = if cfg.trace then snapshot () else [] in
  Lf_obs.Stats.disable ();
  Span.on := false;
  let md_pairs = Span.tally_value "setup.md.pairs" /. float_of_int reps in
  let setup_self =
    Span.self_table ~keep:(fun s -> s.Span.job < 0) ~charges:false ()
    |> List.map (fun (k, v) -> (k, v /. float_of_int reps))
  in
  let n = t.n in
  let nf = float_of_int (max 1 n) in
  let walls = Array.init n (fun i -> walls.{i}) in
  Array.sort compare walls;
  let heap_mb = float_of_int (t.heap_w * (Sys.word_size / 8)) /. 1048576.0 in

  let end_to_end =
    [
      ("setup_s", median !setup_times, "s");
      ("job_ms.p50", (if n > 0 then percentile walls 0.5 else nan), "ms");
      ("job_ms.p90", (if n > 0 then percentile walls 0.9 else nan), "ms");
      ("jobs_per_s", float_of_int n /. t.wall_s, "1/s");
      ("cpu_ms_per_job", t.cpu_s *. 1e3 /. nf, "ms");
      ("peak_heap_mb", heap_mb, "MiB");
      ("sim_steps_per_job", t.steps /. nf, "steps");
      ("lane_slots_per_s", t.lane_slots /. t.wall_s, "1/s");
    ]
  in
  let metrics =
    if not cfg.trace then end_to_end
    else begin
      let keep s = s.Span.job >= 0 in
      let self = Span.self_table ~keep ~charges:true () in
      let ms name = Option.value ~default:0.0 (List.assoc_opt name self) /. 1e6 /. nf in
      let setup_ms name =
        Option.value ~default:0.0 (List.assoc_opt name setup_self) /. 1e6
      in
      let per_job name = Span.tally_value name /. nf in
      let lower_ms = Span.total ~keep "probe.lower" /. 1e6 /. nf in
      let exec_ms = ms "simd.run" +. ms "batch.run" +. ms "kernels.force" in
      let slots = t.lane_slots in
      (* tie-out: the layers' self times against the job wall time the
         harness measured around each job *)
      let attributed =
        List.fold_left
          (fun acc (k, v) -> if k = "job" || is_probe k then acc else acc +. v)
          0.0 self
      in
      let unattributed_pct = 100.0 *. (1.0 -. (attributed /. (t.wall_s *. 1e9))) in
      if Float.abs unattributed_pct > tieout_tolerance_pct then
        note
          (Printf.sprintf "trace tie-out: %.2f%% of job wall time is outside the layers"
             unattributed_pct);
      let cold_us = if t.cold_n > 0 then t.cold_s *. 1e6 /. float_of_int t.cold_n else 0.0 in
      let warm_us =
        if pr.cold <> None && n > t.cold_n then
          (t.wall_s -. t.cold_s) *. 1e6 /. float_of_int (n - t.cold_n)
        else 0.0
      in
      let stat k = float_of_int (List.assoc k stats1 - List.assoc k stats0) /. nf in
      [
        ("md.molecule_ms", setup_ms "md.molecule", "ms");
        ("md.pairlist_ms", setup_ms "md.pairlist", "ms");
        ("md.reference_ms", setup_ms "md.reference", "ms");
        ("md.pairs", md_pairs, "count");
        ("lang.parse_ms", ms "lang.parse", "ms");
        ("lang.typecheck_ms", ms "lang.typecheck", "ms");
        ("lang.pretty_ms", ms "lang.pretty", "ms");
        ("lang.src_kb", per_job "lang.src_kb", "KiB");
        ("analysis.lint_ms", ms "analysis.lint", "ms");
        ("analysis.lint_diags", per_job "analysis.lint_diags", "count");
        ("analysis.refused", per_job "analysis.refused", "count");
        ("core.flatten_ms", ms "core.flatten", "ms");
        ("core.naive_ms", ms "core.naive", "ms");
        ("core.variant.general", per_job "core.variant.general", "count");
        ("core.variant.optimized", per_job "core.variant.optimized", "count");
        ("core.variant.done_test", per_job "core.variant.done_test", "count");
        ("core.out_stmts", per_job "core.out_stmts", "count");
        ("simd.lower_ms", lower_ms, "ms");
        ("simd.run_ms", ms "simd.run", "ms");
        ("batch.run_ms", ms "batch.run", "ms");
        ( "simd.ns_per_lane_slot",
          (if slots > 0.0 then exec_ms *. nf *. 1e6 /. slots else 0.0),
          "ns" );
        ("simd.vector_steps", t.steps /. nf, "count");
        ("simd.frontend_steps", t.frontend /. nf, "count");
        ("simd.reductions", t.reductions /. nf, "count");
        ("simd.lane_slots", slots /. nf, "count");
        ("simd.busy_lanes", t.busy /. nf, "count");
        ( "simd.utilization",
          (if slots > 0.0 then t.busy /. slots else 0.0),
          "ratio" );
      ]
      @ List.map (fun k -> (k, stat k, "count")) stats_counters
      @ [
          ("simd.warm_run_us", warm_us, "us");
          ("simd.cold_run_us", cold_us, "us");
          ( "batch.item_overhead_us",
            (if Span.tally_value "batch.item_wall_ns" > 0.0 then
               (Span.total ~keep "batch.run" -. Span.tally_value "batch.item_wall_ns")
               /. 1e3 /. nf
             else 0.0),
            "us" );
          ("kernels.bind_ms", ms "kernels.bind", "ms");
          ("kernels.force_calls", float_of_int (Span.charged_calls "kernels.force") /. nf, "count");
          ("kernels.force_steps", per_job "kernels.force_steps", "count");
          ("kernels.force_ms", ms "kernels.force", "ms");
          ("gc.minor_mwords_per_job", t.minor_w /. 1e6 /. nf, "Mwords");
          ("gc.promoted_mwords_per_job", t.promoted_w /. 1e6 /. nf, "Mwords");
          ("gc.major_collections_per_job", t.majors /. nf, "count");
          ("trace.job_ms", t.wall_s *. 1e3 /. nf, "ms");
          ("trace.unattributed_pct", unattributed_pct, "%");
        ]
    end
  in
  if cfg.trace then begin
    (try Sys.mkdir cfg.out_dir 0o755 with Sys_error _ -> ());
    let base =
      Filename.concat cfg.out_dir
        (Printf.sprintf "%s-seed%d" (workload_name cfg.workload) cfg.seed)
    in
    Span.write_perfetto (base ^ ".trace.json");
    let oc = open_out (base ^ ".layers.txt") in
    let self = Span.self_table ~keep:(fun s -> s.Span.job >= 0) ~charges:true () in
    let probes, layers = List.partition (fun (k, _) -> is_probe k) self in
    let wall_ns = t.wall_s *. 1e9 in
    let table rows ~per ~share =
      Printf.fprintf oc "%-24s %12s %12s %7s\n" "span" "total_ms" "ms_each" "share";
      List.iter
        (fun (k, v) ->
          Printf.fprintf oc "%-24s %12.3f %12.4f %6.2f%%\n" k (v /. 1e6)
            (v /. 1e6 /. per) (100.0 *. v /. share))
        (List.sort (fun (_, a) (_, b) -> compare b a) rows)
    in
    Printf.fprintf oc
      "# self time per layer over %d measured jobs (%s, seed %d); share of\n\
       # the %.3f ms of job wall time measured around the jobs\n"
      n (workload_name cfg.workload) cfg.seed (wall_ns /. 1e6);
    table layers ~per:nf ~share:wall_ns;
    Printf.fprintf oc "\n# probes outside the jobs (traced run only), per job\n";
    table probes ~per:nf ~share:wall_ns;
    Printf.fprintf oc "\n# set-up, per repetition\n";
    let setup_total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 setup_self in
    table setup_self ~per:1.0 ~share:setup_total;
    close_out oc
  end;
  {
    correct = !correct && n > 0;
    attempted = n;
    failed = !failed;
    metrics;
    notes = List.rev !notes;
  }
