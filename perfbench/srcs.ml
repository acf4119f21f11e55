(** Mini-Fortran sources the benchmark defines itself, the compiler
    options it flattens them with, and the calls every workload shares. *)

open Lf_lang

(** Skewed-row CSR sparse matrix-vector product: row [i] holds [rl(i)]
    entries starting after offset [rs(i)]; [x] is reached through the
    column array, a two-step gather chain. *)
let spmv =
  {|PROGRAM spmv
  INTEGER nrows, ncols, nnz, i, k
  INTEGER rs(nrows)
  INTEGER rl(nrows)
  INTEGER col(nnz)
  REAL a(nnz)
  REAL x(ncols)
  REAL y(nrows)
  DO i = 1, nrows
    DO k = 1, rl(i)
      y(i) = y(i) + a(rs(i) + k) * x(col(rs(i) + k))
    ENDDO
  ENDDO
END
|}

(** The paper's EXAMPLE loop nest (§3, Fig. 4). *)
let example =
  {|PROGRAM example
  INTEGER k, i, j
  INTEGER l(k)
  REAL x(k)
  DO i = 1, k
    DO j = 1, l(i)
      x(i) = x(i) + i * 10 + j
    ENDDO
  ENDDO
END
|}

let simd_opts ?variant ?(assume_inner_nonempty = false) (p : Ast.expr) =
  {
    Lf_core.Pipeline.default_options with
    variant;
    assume_inner_nonempty;
    target = Lf_core.Pipeline.Simd { decomp = Lf_core.Simdize.Cyclic; p };
  }

(** [Pipeline.flatten_program] under the [core.flatten] span, tallying
    the variant chosen and the output size. *)
let flatten opts prog =
  let r =
    Span.with_ "core.flatten" (fun () ->
        Lf_core.Pipeline.flatten_program ~opts prog)
  in
  (match r with
  | Ok o ->
      Span.tally
        (match o.Lf_core.Pipeline.variant_used with
        | Lf_core.Flatten.General -> "core.variant.general"
        | Lf_core.Flatten.Optimized -> "core.variant.optimized"
        | Lf_core.Flatten.DoneTest -> "core.variant.done_test")
        1.0;
      Span.tally "core.out_stmts"
        (float_of_int (Ast_util.stmt_count o.Lf_core.Pipeline.program.Ast.p_body))
  | Error _ -> ());
  r

let read_real vm name =
  match Lf_simd.Vm.read_global vm name with
  | Values.AReal a -> Nd.to_array a
  | _ -> failwith (name ^ " is not a REAL array")

(** Traced run only: time lowering plus [Opt] of [prog] by a separate
    [Compile.lower] call, outside the job ([probe.lower]). *)
let lower_probe ~p prog =
  if !Span.on then
    Span.with_ "probe.lower" (fun () ->
        let frame = Lf_simd.Frame.create ~p (Lf_simd.Compile.var_names prog) in
        ignore (Lf_simd.Compile.lower ~frame ~opt:1 prog.Ast.p_body))
