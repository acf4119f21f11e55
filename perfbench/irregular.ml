(** [irregular-kernels]: NBFORCE (Fig. 13, assignment form) on the
    calibrated synthetic SOD molecule at the paper's N = 6968, flattened
    (cyclic) at two lane counts and SIMDized without flattening at one,
    for two of Table 1's cutoffs; beside it a skewed-row CSR SpMV nest
    flattened with the general variant (Fig. 10). *)

open Lf_lang
module Md = Lf_md
module Vm = Lf_simd.Vm
module Src = Lf_kernels.Nbforce_src

type size = {
  atoms : int;
  cutoffs : float list;
  flat_lanes : int list;
  naive_lanes : int list;
  spmv_rows : int;
  spmv_lanes : int list;
  spmv_mats : int;
}

let full =
  {
    atoms = 6968;
    cutoffs = [ 8.0; 12.0 ];
    flat_lanes = [ 1024; 4096 ];
    naive_lanes = [ 1024 ];
    spmv_rows = 6000;
    spmv_lanes = [ 256; 1024 ];  (* each divides the largest *)
    spmv_mats = 6;
  }

let smoke =
  {
    atoms = 100;
    cutoffs = [ 8.0 ];
    flat_lanes = [ 16 ];
    naive_lanes = [ 16 ];
    spmv_rows = 50;
    spmv_lanes = [ 8 ];
    spmv_mats = 2;
  }

(** The molecule is the paper's single fixed system: its seed does not
    depend on the run's seed (only the SpMV inputs do), so the NBFORCE
    jobs, including the failing naive ones, see the same inputs on every
    run. *)
let molecule_seed = 1992

type cut = {
  cutoff : float;
  pl : Md.Pairlist.t;
  reference : float array;  (** owner-side force magnitudes *)
}

type setup = {
  mol : Md.Molecule.t;
  cuts : cut list;
  mats : Gen.csr list;
  ys : float array list;  (** native A·x of each matrix *)
}

(** Direct sequential sum of [Force.pair] magnitudes over each atom's
    stored partners — the benchmark's own NBFORCE oracle. *)
let reference (mol : Md.Molecule.t) (pl : Md.Pairlist.t) =
  let atoms = mol.Md.Molecule.atoms in
  Array.mapi
    (fun i ps ->
      Array.fold_left
        (fun acc j -> acc +. Md.Force.norm (Md.Force.pair atoms.(i) atoms.(j)))
        0.0 ps)
    pl.Md.Pairlist.partners

let setup size ~seed =
  let mol =
    Span.with_ "md.molecule" (fun () ->
        Md.Workload.calibrate
          (Md.Molecule.sod_uncalibrated ~seed:molecule_seed ~n:size.atoms ()))
  in
  let cuts =
    List.map
      (fun cutoff ->
        let pl =
          Span.with_ "md.pairlist" (fun () ->
              Md.Pairlist.ensure_nonempty mol (Md.Pairlist.build mol ~cutoff))
        in
        let reference = Span.with_ "md.reference" (fun () -> reference mol pl) in
        { cutoff; pl; reference })
      size.cutoffs
  in
  let mats =
    List.init size.spmv_mats (fun m ->
        Span.with_ "gen.spmv" (fun () ->
            Gen.csr
              ~period:(List.fold_left max 1 size.spmv_lanes)
              ~seed:((seed * 101) + m) ~nrows:size.spmv_rows
              ~ncols:size.spmv_rows ()))
  in
  let ys = List.map (fun m -> Span.with_ "gen.spmv" (fun () -> Gen.spmv_native m)) mats in
  Span.tally "md.pairs"
    (float_of_int
       (List.fold_left (fun acc c -> acc + Md.Pairlist.n_pairs c.pl) 0 cuts));
  { mol; cuts; mats; ys }

(* ------------------------------------------------------------------ *)
(* Traced-run probes                                                   *)
(* ------------------------------------------------------------------ *)

(* Force-routine vector steps: executions of the assignment to f. *)
let rec assigns_f = function
  | Ast.SLoc (_, s) -> assigns_f s
  | Ast.SAssign ({ Ast.lv_name = "f"; _ }, _) -> true
  | _ -> false

let force_fn mol =
  let f = Src.force_fn mol in
  if not !Span.on then f
  else fun args ->
    let t0 = Span.now () in
    let v = f args in
    Span.charge "kernels.force" (Int64.sub (Span.now ()) t0);
    v

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

(* Bind the NBFORCE inputs into a fresh VM. *)
let bind_nbforce ~force (c : cut) ~p vm =
  let n, maxp = Src.params c.pl in
  Vm.register_func vm ~pure:true "force" force;
  Vm.bind_scalar vm "n" (Values.VInt n);
  Vm.bind_scalar vm "maxp" (Values.VInt maxp);
  Vm.bind_scalar vm "p" (Values.VInt p);
  Src.bind_arrays c.pl ~n ~maxp ~set_global:(fun name a -> Vm.bind_global vm name a)

(* Force-routine vector steps per (job label, atoms), counted once per
   process by a separate observed run outside the job (a per-statement
   observer slows the compiled engine several-fold, so the timed run has
   none).  The molecule does not depend on the seed, so neither does the
   count. *)
let force_steps : (string * int, int) Hashtbl.t = Hashtbl.create 8

let count_force_steps st (c : cut) ~p ~label prog =
  let key = (label, Array.length c.reference) in
  match Hashtbl.find_opt force_steps key with
  | Some k -> k
  | None ->
      let k = ref 0 in
      Span.with_ "probe.force_steps" (fun () ->
          ignore
            (Vm.run ~engine:`Compiled ~p
               ~setup:(fun vm ->
                 bind_nbforce ~force:(Src.force_fn st.mol) c ~p vm;
                 Vm.set_observer vm (fun _ ~mask:_ s -> if assigns_f s then incr k))
               prog));
      Hashtbl.add force_steps key !k;
      !k

let nbforce_job st (c : cut) ~naive ~p : Job.t =
  let label =
    Printf.sprintf "nbforce-%s-%gA-p%d" (if naive then "naive" else "flat") c.cutoff p
  in
  let exec () =
    let prog = Span.with_ "lang.parse" (fun () -> Parser.program_of_string Src.source) in
    let o =
      if naive then
        Span.with_ "core.naive" (fun () ->
            Lf_core.Pipeline.simdize_program_naive
              ~opts:(Srcs.simd_opts (Ast.EInt p)) prog)
      else
        Srcs.flatten (Srcs.simd_opts ~assume_inner_nonempty:true (Ast.EInt p)) prog
    in
    let prog =
      match o with
      | Ok o -> o.Lf_core.Pipeline.program
      | Error e -> failwith (label ^ ": " ^ e)
    in
    let vm =
      Span.with_ "simd.run" (fun () ->
          Vm.run ~engine:`Compiled ~p
            ~setup:(fun vm ->
              Span.with_ "kernels.bind" (fun () ->
                  bind_nbforce ~force:(force_fn st.mol) c ~p vm))
            prog)
    in
    let f = Srcs.read_real vm "f" in
    let check () =
      Srcs.lower_probe ~p prog;
      let n = Array.length c.reference in
      let trips = c.pl.Md.Pairlist.pcnt in
      let tail = n / p * p in
      let eq2_kept = Eqs.eq2_cyclic ~p (Array.sub trips 0 tail) in
      (* Table 2's count against Eq. 1' / Eq. 2, in the traced run *)
      let steps =
        if !Span.on then Some (count_force_steps st c ~p ~label prog) else None
      in
      Span.tally "kernels.force_steps" (float_of_int (Option.value steps ~default:0));
      let expect = if naive then Eqs.eq2_cyclic ~p trips else Eqs.eq1_cyclic ~p trips in
      match (Job.mismatches c.reference f, steps) with
      | [], Some k when k <> expect ->
          Job.Wrong
            (Printf.sprintf "%s: %d force steps, Eq. %s gives %d" label k
               (if naive then "2" else "1'") expect)
      | [], _ -> Job.Pass
      | bad, _ ->
          if naive
             && bad = List.init (n - tail) (fun q -> tail + q)
             && List.for_all (fun i -> f.(i) = 0.0) bad
             && Option.fold ~none:true ~some:(( = ) eq2_kept) steps
          then
            Job.Fault
              (Printf.sprintf
                 "tail drop: naive SIMDization ran n/P = %d outer trips and \
                  left the last n mod P = %d atoms without force \
                  (Simdize.simdize_nest defaults ?divisible to true); the \
                  missing partial trip holds %d force steps (Eq. 2 over all \
                  n minus Eq. 2 over the first %d atoms)"
                 (n / p) (n - tail)
                 (Eqs.eq2_cyclic ~p trips - eq2_kept)
                 tail)
          else
            Job.Wrong
              (Printf.sprintf "%s: %d atoms disagree with the reference" label
                 (List.length bad))
    in
    { Job.metrics = Some vm.Vm.metrics; check }
  in
  { Job.label; exec }

let spmv_job (m : Gen.csr) (y_ref : float array) ~index ~p : Job.t =
  let label = Printf.sprintf "spmv-%d-p%d" index p in
  let exec () =
    let prog = Span.with_ "lang.parse" (fun () -> Parser.program_of_string Srcs.spmv) in
    let o =
      Srcs.flatten (Srcs.simd_opts ~variant:Lf_core.Flatten.General (Ast.EInt p)) prog
    in
    let prog =
      match o with
      | Ok o -> o.Lf_core.Pipeline.program
      | Error e -> failwith (label ^ ": " ^ e)
    in
    let ints a = Values.AInt (Nd.of_array a) in
    let reals a = Values.AReal (Nd.of_array a) in
    let vm =
      Span.with_ "simd.run" (fun () ->
          Vm.run ~engine:`Compiled ~p
            ~setup:(fun vm ->
              Span.with_ "kernels.bind" (fun () ->
                  Vm.bind_scalar vm "nrows" (Values.VInt m.Gen.nrows);
                  Vm.bind_scalar vm "ncols" (Values.VInt m.Gen.ncols);
                  Vm.bind_scalar vm "nnz" (Values.VInt (max 1 (Gen.nnz m)));
                  Vm.bind_scalar vm "p" (Values.VInt p);
                  Vm.bind_global vm "rs" (ints m.Gen.rs);
                  Vm.bind_global vm "rl" (ints m.Gen.rl);
                  Vm.bind_global vm "col" (ints m.Gen.col);
                  Vm.bind_global vm "a" (reals m.Gen.a);
                  Vm.bind_global vm "x" (reals m.Gen.x)))
            prog)
    in
    let y = Srcs.read_real vm "y" in
    let check () =
      Srcs.lower_probe ~p prog;
      match Job.mismatches y_ref y with
      | [] -> Job.Pass
      | bad ->
          Job.Wrong (Printf.sprintf "%s: %d rows disagree with A.x" label (List.length bad))
    in
    { Job.metrics = Some vm.Vm.metrics; check }
  in
  { Job.label; exec }

let prepare size st : Job.t list =
  let nb =
    List.concat_map
      (fun c ->
        List.map (fun p -> nbforce_job st c ~naive:false ~p) size.flat_lanes
        @ List.map (fun p -> nbforce_job st c ~naive:true ~p) size.naive_lanes)
      st.cuts
  in
  let sp =
    List.concat
      (List.mapi
         (fun index (m, y) ->
           List.map (fun p -> spmv_job m y ~index ~p) size.spmv_lanes)
         (List.combine st.mats st.ys))
  in
  nb @ sp
