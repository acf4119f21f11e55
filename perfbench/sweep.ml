(** [warm-sweep]: a parameter sweep through [Batch.run] with one program
    cache per round.  Two flattened programs (EXAMPLE of Fig. 4 and a
    small skewed SpMV) run at three lane counts over hundreds of seeded
    data sets; the first item of each (program, lane count) in a round
    misses the cache and every later one hits. *)

open Lf_lang
module Vm = Lf_simd.Vm
module Batch = Lf_simd.Batch

type size = {
  datasets : int;  (** two thirds EXAMPLE, one third SpMV *)
  lanes : int list;  (** each divides the largest *)
  example_k : int;
  spmv_rows : int;
}

let full = { datasets = 240; lanes = [ 4; 8; 16 ]; example_k = 24; spmv_rows = 40 }
let smoke = { datasets = 6; lanes = [ 4; 8 ]; example_k = 10; spmv_rows = 12 }

type data =
  | Example of { l : int array; want : float array }
  | Spmv of { m : Gen.csr; want : float array }

type setup = {
  example_src : string;  (** flattened EXAMPLE, P left symbolic *)
  spmv_src : string;  (** flattened SpMV, P left symbolic *)
  data : data array;
}

let flattened ?variant ~assume_inner_nonempty src =
  let prog = Span.with_ "lang.parse" (fun () -> Parser.program_of_string src) in
  match
    Srcs.flatten
      (Srcs.simd_opts ?variant ~assume_inner_nonempty (Ast.EVar "p"))
      prog
  with
  | Ok o ->
      Span.with_ "lang.pretty" (fun () ->
          Pretty.program_to_string o.Lf_core.Pipeline.program)
  | Error e -> failwith ("cannot flatten a sweep program: " ^ e)

let setup size ~seed =
  (* data are placed within residue classes mod the largest lane count,
     so each lane's work, and every simulated count, is the same for
     every seed *)
  let period = List.fold_left max 1 size.lanes in
  let example_src = flattened ~assume_inner_nonempty:true Srcs.example in
  let spmv_src =
    flattened ~variant:Lf_core.Flatten.General ~assume_inner_nonempty:false
      Srcs.spmv
  in
  let data =
    Span.with_ "gen.sweep" (fun () ->
        Array.init size.datasets (fun d ->
            let s = (seed * 4099) + d in
            if d mod 3 <> 2 then
              let l = Gen.example_l ~period ~seed:s ~index:d ~k:size.example_k in
              Example { l; want = Gen.example_x l }
            else
              let m =
                Gen.csr ~period ~seed:s ~nrows:size.spmv_rows ~ncols:size.spmv_rows ()
              in
              Spmv { m; want = Gen.spmv_native m }))
  in
  { example_src; spmv_src; data }

let item ~program ~p ~d : Batch.item =
  {
    Batch.bi_program = program;
    bi_p = p;
    bi_engine = `Compiled;
    bi_opt = 1;
    bi_jobs = None;
    bi_verify = false;
    bi_fuel = None;
    bi_timeout_ms = None;
    bi_repeat = 1;
    bi_kernel = Some (string_of_int d);
    bi_sets = [];
    bi_fills = [];
  }

(* The round's shared cache; [prepare]'s first job replaces it. *)
let cache = ref (Lf_simd.Progcache.create ())

let prepare size st : (Job.t * bool) list =
  let read = function
    | "example" -> st.example_src
    | "spmv" -> st.spmv_src
    | f -> raise (Sys_error (f ^ ": no such sweep program"))
  in
  let ints a = Values.AInt (Nd.of_array a) in
  let reals a = Values.AReal (Nd.of_array a) in
  let bind (it : Batch.item) vm =
    Span.with_ "kernels.bind" (fun () ->
        match st.data.(int_of_string (Option.get it.Batch.bi_kernel)) with
        | Example { l; _ } ->
            Vm.bind_scalar vm "k" (Values.VInt (Array.length l));
            Vm.bind_global vm "l" (ints l)
        | Spmv { m; _ } ->
            Vm.bind_scalar vm "nrows" (Values.VInt m.Gen.nrows);
            Vm.bind_scalar vm "ncols" (Values.VInt m.Gen.ncols);
            Vm.bind_scalar vm "nnz" (Values.VInt (max 1 (Gen.nnz m)));
            Vm.bind_global vm "rs" (ints m.Gen.rs);
            Vm.bind_global vm "rl" (ints m.Gen.rl);
            Vm.bind_global vm "col" (ints m.Gen.col);
            Vm.bind_global vm "a" (reals m.Gen.a);
            Vm.bind_global vm "x" (reals m.Gen.x))
  in
  let program_of d = match st.data.(d) with Example _ -> "example" | Spmv _ -> "spmv" in
  let job ~first ~cold ~d ~p : Job.t =
    let program = program_of d in
    let it = item ~program ~p ~d in
    let label = Printf.sprintf "%s-%d-p%d" program d p in
    let exec () =
      if first then cache := Lf_simd.Progcache.create ();
      let vm = ref None in
      let status = ref "" in
      let failed =
        Span.with_ "batch.run" (fun () ->
            Batch.run ~cache:!cache ~read
              ~setup:(fun it v ->
                vm := Some v;
                bind it v)
              ~emit:(fun r ->
                (match Lf_obs.Json.member "status" r with
                | Some (Lf_obs.Json.Str s) -> status := s
                | _ -> ());
                match Lf_obs.Json.member "wall_ns" r with
                | Some (Lf_obs.Json.Int ns) -> Span.tally "batch.item_wall_ns" (float_of_int ns)
                | _ -> ())
              [ it ])
      in
      let vm = Option.get !vm in
      let out, want =
        match st.data.(d) with
        | Example { want; _ } -> (Srcs.read_real vm "x", want)
        | Spmv { want; _ } -> (Srcs.read_real vm "y", want)
      in
      let check () =
        if cold then Srcs.lower_probe ~p (Parser.program_of_string (read program));
        if failed then Job.Wrong (Printf.sprintf "%s: batch item status %s" label !status)
        else
          match Job.mismatches want out with
          | [] -> Job.Pass
          | bad -> Job.Wrong (Printf.sprintf "%s: %d elements differ from the oracle" label (List.length bad))
      in
      { Job.metrics = Some vm.Vm.metrics; check }
    in
    { Job.label; exec }
  in
  (* each job paired with whether it is its cache key's first use *)
  let seen = Hashtbl.create 8 in
  List.concat
    (List.init (Array.length st.data) (fun d ->
         List.map
           (fun p ->
             let key = (program_of d, p) in
             let cold = not (Hashtbl.mem seen key) in
             Hashtbl.replace seen key ();
             (job ~first:(d = 0 && p = List.hd size.lanes) ~cold ~d ~p, cold))
           size.lanes))
