(* What a workload run reports, and the two kinds of bad news, both
   printed as they happen.  A failed unit (a cell classified Fail or
   raising, a scenario whose violation set is not its expectation, an
   experiment that raises or prints other output) is counted in the
   result's [failed].  A failed check of the benchmark's own consistency
   (runs that disagree, counts that are not exact, a self-test that does
   not detect) makes the run incorrect. *)

let errors = ref []

let error fmt =
  Printf.ksprintf
    (fun m ->
      errors := m :: !errors;
      prerr_endline ("perfbench: ERROR: " ^ m))
    fmt

let failure fmt =
  Printf.ksprintf (fun m -> prerr_endline ("perfbench: FAILED: " ^ m)) fmt

type value = Int of int | Float of float

type result = {
  attempted : int;
  failed : int;
  metrics : (string * value) list;
}

let nproc = Threads_runner.recommended_jobs ()
let us s = s *. 1e6
let per a b = if b = 0 then 0. else a /. float_of_int b

(* [runner_metrics ~jobs ~walls probes] — the executor's cost from the
   probes of traced matrices run at [jobs] workers; [walls] are those
   matrices' wall seconds. *)
let runner_metrics ~jobs ~walls probes =
  let open Measure in
  let cells = List.concat_map probe_cells probes in
  let busy = List.fold_left (fun a p -> a +. probe_busy p) 0. probes in
  let capacity = float_of_int jobs *. List.fold_left ( +. ) 0. walls in
  let steals = List.fold_left (fun a p -> a + Atomic.get p.steals) 0 probes in
  [
    ("runner.cell_us_p50", Float (us (quantile 0.5 cells)));
    ("runner.cell_us_p99", Float (us (quantile 0.99 cells)));
    ( "runner.overhead_us_per_cell",
      Float (us (per (capacity -. busy) (List.length cells))) );
    ("runner.idle_frac", Float (1. -. (busy /. capacity)));
    ("runner.steals", Int steals);
  ]
