(** [frontend-corpus]: a seeded corpus of distinct generated two-level
    nests, each taken down the [flattenc --lint --target simd] path —
    parse, typecheck, lint, flatten + SIMDize, pretty-print — then
    re-parsed and run briefly on the compiled engine.  Every job starts
    from source text and nothing is cached. *)

open Lf_lang
module Vm = Lf_simd.Vm

(* corpus size = jobs per round *)
let full = 21
let smoke = 5

(* lane count of the short simulation *)
let lanes = 4

type item = {
  nest : Gen.nest;
  data : Gen.nest_data;
  want : (string * float array) list;  (** [Interp] on the original *)
  inner_nonempty : bool;  (** assert §4 condition 2 (true for this data) *)
}

let params (d : Gen.nest_data) =
  [ ("k", Values.VInt d.Gen.k); ("m", Values.VInt (d.Gen.k + 1)) ]

let real_arr a = Values.AReal (Nd.of_array a)

let interp (n : Gen.nest) (d : Gen.nest_data) =
  let ctx =
    Interp.run ~params:(params d)
      ~setup:(fun ctx ->
        Env.set ctx.Interp.env "l" (Values.VArr (Values.AInt (Nd.of_array d.Gen.l)));
        List.iter
          (fun (v, a) -> Env.set ctx.Interp.env v (Values.VArr (real_arr a)))
          d.Gen.ins)
      (Parser.program_of_string n.Gen.src)
  in
  List.map
    (fun v ->
      match Env.find ctx.Interp.env v with
      | Values.VArr (Values.AReal a) -> (v, Nd.to_array a)
      | _ -> failwith (v ^ " is not a REAL array"))
    n.Gen.outputs

let setup nests ~seed =
  List.init nests (fun index ->
      let nest = Span.with_ "gen.corpus" (fun () -> Gen.nest ~seed ~index) in
      let data = Gen.nest_data ~seed ~index nest in
      let want =
        if nest.Gen.planted then []
        else Span.with_ "gen.reference" (fun () -> interp nest data)
      in
      { nest; data; want; inner_nonempty = index mod 2 = 0 })

let job (it : item) : Job.t =
  let n = it.nest and d = it.data and p = lanes in
  let exec () =
    let prog = Span.with_ "lang.parse" (fun () -> Parser.program_of_string n.Gen.src) in
    let tc =
      Span.with_ "lang.typecheck" (fun () ->
          Typecheck.check_program
            ~params:[ ("k", Typecheck.Int); ("m", Typecheck.Int) ]
            prog)
    in
    let lint =
      Span.with_ "analysis.lint" (fun () -> Lf_analysis.Lint.check_program prog)
    in
    let flat =
      Srcs.flatten
        (Srcs.simd_opts ~assume_inner_nonempty:it.inner_nonempty (Ast.EInt p))
        prog
    in
    let lint_errors = Lf_analysis.Lint.errors lint in
    Span.tally "analysis.lint_diags"
      (float_of_int (List.length lint.Lf_analysis.Lint.diags));
    Span.tally "lang.src_kb" (float_of_int (String.length n.Gen.src) /. 1024.0);
    match flat with
    | Error e ->
        Span.tally "analysis.refused" 1.0;
        let check () =
          if not n.Gen.planted then Job.Wrong (n.Gen.name ^ " refused: " ^ e)
          else if lint_errors = [] then
            Job.Wrong (n.Gen.name ^ ": planted dependence not reported by lint")
          else Job.Pass
        in
        { Job.metrics = None; check }
    | Ok o ->
        let text =
          Span.with_ "lang.pretty" (fun () -> Pretty.program_to_string o.Lf_core.Pipeline.program)
        in
        let prog' = Span.with_ "lang.parse" (fun () -> Parser.program_of_string text) in
        let vm =
          Span.with_ "simd.run" (fun () ->
              Vm.run ~engine:`Compiled ~p
                ~setup:(fun vm ->
                  Span.with_ "kernels.bind" (fun () ->
                      List.iter (fun (k, v) -> Vm.bind_scalar vm k v) (params d);
                      Vm.bind_scalar vm "p" (Values.VInt p);
                      Vm.bind_global vm "l" (Values.AInt (Nd.of_array d.Gen.l));
                      List.iter (fun (v, a) -> Vm.bind_global vm v (real_arr a)) d.Gen.ins))
                prog')
        in
        let got = List.map (fun v -> (v, Srcs.read_real vm v)) n.Gen.outputs in
        let check () =
          Srcs.lower_probe ~p prog';
          if n.Gen.planted then Job.Wrong (n.Gen.name ^ ": planted dependence was flattened")
          else if not (Typecheck.ok tc) then Job.Wrong (n.Gen.name ^ ": typecheck errors")
          else if lint_errors <> [] then Job.Wrong (n.Gen.name ^ ": lint refused a safe nest")
          else
            let bad =
              List.concat_map
                (fun (v, want) -> Job.mismatches want (List.assoc v got))
                it.want
            in
            if bad = [] then Job.Pass
            else Job.Wrong (Printf.sprintf "%s: %d elements differ from Interp" n.Gen.name (List.length bad))
        in
        { Job.metrics = Some vm.Vm.metrics; check }
  in
  { Job.label = n.Gen.name; exec }

let prepare items : Job.t list = List.map job items
