(** Seeded input generators.  Every generator is a pure function of its
    seed (splitmix64, [Lf_md.Rng]); where a workload's cost depends on a
    size, the size is drawn from a fixed stream and only its placement
    and the values depend on the seed, so runs with different seeds do
    the same amount of work. *)

module Rng = Lf_md.Rng

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Skewed-row CSR matrices                                             *)
(* ------------------------------------------------------------------ *)

type csr = {
  nrows : int;
  ncols : int;
  rs : int array;  (** offset before row i's first entry (0-based) *)
  rl : int array;  (** entries in row i *)
  col : int array;  (** 1-based column of each entry *)
  a : float array;
  x : float array;
}

(** Shuffle within each residue class mod [period]: for any lane count
    dividing [period], every lane's multiset of elements is unchanged. *)
let shuffle_classes rng ~period a =
  for r = 0 to min period (Array.length a) - 1 do
    let idx = Array.init ((Array.length a - r + period - 1) / period) (fun q -> r + (q * period)) in
    let vals = Array.map (fun i -> a.(i)) idx in
    shuffle rng vals;
    Array.iteri (fun q i -> a.(i) <- vals.(q)) idx
  done

(** Row lengths: 3% empty rows, 72% of 1-4 entries, 21% of 5-16 and a 4%
    tail of 32-128, drawn from a fixed stream (so [nnz] does not depend
    on the seed) and then placed by [seed] within the residue classes
    mod [period] (default [nrows], i.e. anywhere).  With [period] a
    multiple of every lane count used, the seed leaves each lane's rows,
    and so the flattened step count, unchanged. *)
let row_lengths ?period ~seed ~nrows () =
  let fixed = Rng.create (7919 + nrows) in
  let lens =
    Array.init nrows (fun _ ->
        let u = Rng.float fixed in
        if u < 0.03 then 0
        else if u < 0.75 then 1 + Rng.int fixed 4
        else if u < 0.96 then 5 + Rng.int fixed 12
        else 32 + Rng.int fixed 97)
  in
  shuffle_classes (Rng.create seed) ~period:(Option.value period ~default:nrows) lens;
  lens

let csr ?period ~seed ~nrows ~ncols () =
  let rl = row_lengths ?period ~seed ~nrows () in
  let rs = Array.make nrows 0 in
  for i = 1 to nrows - 1 do
    rs.(i) <- rs.(i - 1) + rl.(i - 1)
  done;
  let nnz = rs.(nrows - 1) + rl.(nrows - 1) in
  let rng = Rng.create (seed * 31 + 5) in
  let col = Array.init nnz (fun _ -> 1 + Rng.int rng ncols) in
  let a = Array.init nnz (fun _ -> Rng.range rng (-1.0) 1.0) in
  let x = Array.init ncols (fun _ -> Rng.range rng (-1.0) 1.0) in
  { nrows; ncols; rs; rl; col; a; x }

let nnz m = Array.length m.a

(** The benchmark's own A·x, row by row in entry order. *)
let spmv_native m =
  Array.init m.nrows (fun i ->
      let acc = ref 0.0 in
      for k = 1 to m.rl.(i) do
        let e = m.rs.(i) + k - 1 in
        acc := !acc +. (m.a.(e) *. m.x.(m.col.(e) - 1))
      done;
      !acc)

(* ------------------------------------------------------------------ *)
(* EXAMPLE data sets                                                   *)
(* ------------------------------------------------------------------ *)

(** Inner trip counts [l(1..k)] in 1..12 for data set [index]: drawn
    from a stream fixed per index and placed by [seed] within the
    residue classes mod [period], like [row_lengths]. *)
let example_l ~period ~seed ~index ~k =
  let fixed = Rng.create ((index * 7) + 3) in
  let l = Array.init k (fun _ -> 1 + Rng.int fixed 12) in
  shuffle_classes (Rng.create seed) ~period l;
  l

(** Closed form of EXAMPLE's result: x(i) = 10·i·l(i) + l(i)(l(i)+1)/2. *)
let example_x (l : int array) =
  Array.mapi
    (fun i li ->
      let i = i + 1 in
      float_of_int ((10 * i * li) + (li * (li + 1) / 2)))
    l

(* ------------------------------------------------------------------ *)
(* Front-end corpus: generated two-level nests                         *)
(* ------------------------------------------------------------------ *)

type nest = {
  name : string;
  src : string;
  planted : bool;  (** carries a cross-iteration dependence *)
  stmts : int;  (** statements in the inner body *)
  outputs : string list;  (** arrays the nest writes *)
  inputs : string list;  (** read-only arrays *)
}

(** Inner-body sizes of the corpus, cycled in this order. *)
let corpus_sizes = [| 24; 160; 48; 256; 32; 96; 200; 64; 128; 40 |]

(** Every [planted_every]-th nest (index 0, 5, 10, ...) is unsafe. *)
let planted_every = 5

let nest ~seed ~index : nest =
  (* the shape (statement kinds, term kinds, planted position) comes
     from a stream fixed per index, so every seed yields nests of the
     same size and cost; the seed picks arrays and constants *)
  let shape = Rng.create ((index * 7919) + 17) in
  let rng = Rng.create ((seed * 1_000_003) + (index * 7919) + 17) in
  let stmts = corpus_sizes.(index mod Array.length corpus_sizes) in
  let planted = index mod planted_every = 0 in
  let n_out = max 2 (stmts / 12) and n_in = 4 in
  let outputs = List.init n_out (fun q -> Printf.sprintf "a%d" (q + 1)) in
  let inputs = List.init n_in (fun q -> Printf.sprintf "b%d" (q + 1)) in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let term () =
    match Rng.int shape 6 with
    | 0 -> Printf.sprintf "%s(i)" (pick inputs)
    | 1 -> Printf.sprintf "%s(i)" (pick outputs)
    | 2 -> "j * 0.125"
    | 3 -> "i * 0.01"
    | 4 -> Printf.sprintf "%d.%d" (Rng.int rng 3) (1 + Rng.int rng 9)
    | _ -> Printf.sprintf "%s(i) * %s(i)" (pick inputs) (pick inputs)
  in
  let op () = match Rng.int shape 3 with 0 -> "+" | 1 -> "-" | _ -> "*" in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "PROGRAM nest%d\n  INTEGER k, m, i, j\n  INTEGER l(k)\n" index;
  List.iter (fun v -> add "  REAL %s(m)\n" v) (outputs @ inputs);
  add "  DO i = 1, k\n    DO j = 1, l(i)\n";
  (* the planted statement reads the next outer iteration's element of
     an array the nest writes: a carried anti-dependence *)
  let plant_at = if planted then Rng.int shape stmts else -1 in
  for s = 0 to stmts - 1 do
    let x = pick outputs in
    if s = plant_at then
      add "      %s(i) = %s(i) * 0.5 + %s(i + 1) * 0.25\n" x x
        (pick outputs)
    else
      match Rng.int shape 4 with
      | 0 ->
          add "      IF (MOD(i + j, %d) == 0) THEN\n" (2 + Rng.int shape 3);
          add "        %s(i) = %s(i) - %s * 0.25\n" x x (term ());
          add "      ENDIF\n"
      | 1 -> add "      %s(i) = MAX(%s(i), %s) * 0.5\n" x x (term ())
      | _ ->
          let t1 = term () in
          let o = op () in
          add "      %s(i) = %s(i) * 0.5 + (%s %s %s)\n" x x t1 o (term ())
  done;
  add "    ENDDO\n  ENDDO\nEND\n";
  {
    name = Printf.sprintf "nest%d" index;
    src = Buffer.contents b;
    planted;
    stmts;
    outputs;
    inputs;
  }

(** The data a corpus nest runs on: [k] outer iterations (not a
    multiple of the lane counts used), inner trip counts [l(i)] in 1..6
    fixed per index (they set the simulated step count), and inputs in
    [-1, 1) drawn from the seed. *)
type nest_data = {
  k : int;
  l : int array;
  ins : (string * float array) list;
}

let nest_data ~seed ~index (n : nest) =
  let shape = Rng.create (index + 101) in
  let rng = Rng.create ((seed * 65_537) + index + 101) in
  let k = 13 in
  {
    k;
    l = Array.init k (fun _ -> 1 + Rng.int shape 6);
    ins =
      List.map
        (fun v -> (v, Array.init (k + 1) (fun _ -> Rng.range rng (-1.0) 1.0)))
        n.inputs;
  }
