(** What a workload hands the harness: a fixed list of jobs per round.

    [exec] is the timed part: it makes the library calls and returns the
    simulated machine's counters with a [check] thunk.  The harness runs
    [check] after stopping the clock, so the benchmark's own oracles are
    never billed to the program. *)

type outcome =
  | Pass
  | Fault of string
      (** the job hit the named, known fault of the program: counted as
          failed, and the run stays correct *)
  | Wrong of string  (** an oracle disagreed: the run is not correct *)

type result = {
  metrics : Lf_simd.Metrics.t option;
  check : unit -> outcome;
}

type t = {
  label : string;
  exec : unit -> result;
}

(* Equal within a relative 1e-9 (absolute below magnitude 1). *)
let relclose a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** Indices (0-based) where [got] disagrees with [want]. *)
let mismatches (want : float array) (got : float array) : int list =
  let acc = ref [] in
  for i = Array.length want - 1 downto 0 do
    if not (relclose want.(i) got.(i)) then acc := i :: !acc
  done;
  !acc
