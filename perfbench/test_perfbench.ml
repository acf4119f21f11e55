(* The benchmark's own tests: generator determinism, the Eq. 1'/Eq. 2
   calculators against Lf_core.Bounds, refusal of every planted
   dependence, and a smoke run of each workload at tiny sizes. *)

open Perfbench

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let test_generators () =
  let a = Gen.csr ~seed:3 ~nrows:200 ~ncols:200 () in
  check "csr deterministic in its seed" (a = Gen.csr ~seed:3 ~nrows:200 ~ncols:200 ());
  let b = Gen.csr ~seed:4 ~nrows:200 ~ncols:200 () in
  check "csr varies with its seed" (a <> b);
  let sorted m = List.sort compare (Array.to_list m.Gen.rl) in
  check "csr row-length multiset does not depend on the seed" (sorted a = sorted b);
  let lane_sums ~p m =
    let s = Array.make p 0 in
    Array.iteri (fun i l -> s.(i mod p) <- s.(i mod p) + l) m.Gen.rl;
    s
  in
  let c1 = Gen.csr ~period:16 ~seed:1 ~nrows:100 ~ncols:100 () in
  let c2 = Gen.csr ~period:16 ~seed:2 ~nrows:100 ~ncols:100 () in
  check "class-preserving placement keeps every lane's load"
    (c1.Gen.rl <> c2.Gen.rl && lane_sums ~p:8 c1 = lane_sums ~p:8 c2
     && lane_sums ~p:16 c1 = lane_sums ~p:16 c2);
  check "nest deterministic in its seed"
    (Gen.nest ~seed:9 ~index:3 = Gen.nest ~seed:9 ~index:3);
  check "nest varies with its seed"
    ((Gen.nest ~seed:9 ~index:3).Gen.src <> (Gen.nest ~seed:10 ~index:3).Gen.src);
  let n = Gen.nest ~seed:9 ~index:3 in
  check "nest data deterministic in its seed"
    (Gen.nest_data ~seed:9 ~index:3 n = Gen.nest_data ~seed:9 ~index:3 n);
  check "example data deterministic in its seed"
    (Gen.example_l ~period:8 ~seed:5 ~index:2 ~k:30
     = Gen.example_l ~period:8 ~seed:5 ~index:2 ~k:30)

let test_bounds () =
  let rng = Lf_md.Rng.create 11 in
  let agree = ref true in
  for _ = 1 to 200 do
    let p = 1 + Lf_md.Rng.int rng 8 in
    let n = p * (1 + Lf_md.Rng.int rng 6) in
    let trips = Array.init n (fun _ -> Lf_md.Rng.int rng 9) in
    let t = Lf_core.Bounds.distribute ~p `Cyclic trips in
    if Eqs.eq1_cyclic ~p trips <> Lf_core.Bounds.time_mimd t
       || Eqs.eq2_cyclic ~p trips <> Lf_core.Bounds.time_simd t
    then agree := false
  done;
  check "Eq. 1' and Eq. 2 agree with Bounds when p divides n" !agree;
  (* the paper's EXAMPLE: L = 4,1,2,1,1,3,1,3 on P = 2 *)
  let l = Lf_kernels.Example_kernel.paper_l in
  check "EXAMPLE bounds" (Eqs.eq1_cyclic ~p:2 l = 8 && Eqs.eq2_cyclic ~p:2 l = 12);
  check "partial last group" (Eqs.eq2_cyclic ~p:4 [| 1; 2; 3; 4; 5 |] = 9)

let test_planted_refused () =
  let all = ref true in
  for seed = 1 to 3 do
    for index = 0 to 20 do
      let n = Gen.nest ~seed ~index in
      if n.Gen.planted then begin
        let prog = Lf_lang.Parser.program_of_string n.Gen.src in
        let lint = Lf_analysis.Lint.check_program prog in
        let opts = Srcs.simd_opts (Lf_lang.Ast.EInt 4) in
        match Lf_core.Pipeline.flatten_program ~opts prog with
        | Error _ when Lf_analysis.Lint.errors lint <> [] -> ()
        | _ -> all := false
      end
    done
  done;
  check "every planted-dependence nest is refused by lint and the pipeline" !all

let test_smoke () =
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun trace ->
          let r =
            Harness.run
              {
                Harness.workload;
                seed = 2;
                seconds = 1;
                trace;
                smoke = true;
                out_dir = "smoke_out";
              }
          in
          List.iter (fun n -> Printf.printf "  note %s\n" n) r.Harness.notes;
          let expect_failed =
            (* only the unflattened NBFORCE job fails (tail drop) *)
            if workload = Harness.Irregular then 2 else 0
          in
          check
            (Printf.sprintf "smoke %s (trace %b): correct, %d failed" name trace
               expect_failed)
            (r.Harness.correct && r.Harness.failed = expect_failed))
        [ false; true ])
    Harness.workloads

let () =
  test_generators ();
  test_bounds ();
  test_planted_refused ();
  test_smoke ();
  if !failures > 0 then exit 1
