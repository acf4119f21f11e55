(** The paper's two SIMD time bounds for a cyclic assignment of outer
    iterations to lanes, computed from the trip counts alone.

    Outer iteration [i] (0-based) runs on lane [i mod p].  Unlike
    [Lf_core.Bounds.distribute], [p] need not divide the iteration
    count: the last group of iterations is simply partial. *)

(** Eq. 1' (the flattened bound): [max_q Σ_{i ≡ q} L_i]. *)
let eq1_cyclic ~p (trips : int array) : int =
  let sums = Array.make p 0 in
  Array.iteri (fun i l -> sums.(i mod p) <- sums.(i mod p) + l) trips;
  Array.fold_left max 0 sums

(** Eq. 2 (the unflattened bound): [Σ_t max_q L_{t·p+q}] over the
    ⌈n/p⌉ groups of [p] consecutive iterations. *)
let eq2_cyclic ~p (trips : int array) : int =
  let n = Array.length trips in
  let total = ref 0 in
  let t = ref 0 in
  while !t < n do
    let m = ref 0 in
    for i = !t to min n (!t + p) - 1 do
      m := max !m trips.(i)
    done;
    total := !total + !m;
    t := !t + p
  done;
  !total
