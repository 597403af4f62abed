(* Workload explore-dpor: sleep-set DPOR over the whole scenario
   catalogue, as [repro explore] runs it (per-prefix budget of 10^6
   executions, frontier split at 2 branches, jobs=1).  The catalogue is
   fixed, so the seed does not change the inputs. *)

open Measure
open Report
module Ex = Firefly.Explore
module Sc = Threads_harness.Explore_scenarios

let max_runs = 1_000_000

type search = {
  sc : Sc.t;
  found : string list;
  stats : Ex.dpor_stats;
  secs : float;
}

let search ?telemetry ~jobs (sc : Sc.t) =
  let (found, stats), secs =
    timed (fun () ->
        Ex.explore_dpor_parallel ~max_depth:sc.Sc.max_depth ~max_runs
          ~split_branches:2 ~jobs ?telemetry ~build:sc.Sc.build sc.Sc.check)
  in
  { sc; found; stats; secs }

let search_failed s = s.found <> s.sc.Sc.expect || not s.stats.Ex.complete

(* What must repeat exactly, whatever the run or the job count. *)
let exact s =
  let st = s.stats in
  ( s.sc.Sc.name,
    s.found,
    [ st.Ex.executions; st.Ex.sleep_blocked; st.Ex.dpor_steps; st.Ex.peak_depth ] )

let total f searches = List.fold_left (fun a s -> a + f s.stats) 0 searches

(* Failure-accounting self-test: a scenario given a wrong [expect] must
   be flagged. *)
let selftest () =
  let sc = Option.get (Sc.find "wakeup-waiting") in
  let wrong = { sc with Sc.expect = [ "a violation it cannot produce" ] } in
  if search_failed (search ~jobs:1 wrong) then
    print_endline "self-test: a wrong explore expectation is flagged"
  else error "self-test: a wrong explore expectation was not flagged"

(* Rounds over the catalogue at [jobs] workers; with [probed], every
   search's runner is observed.  Every round must repeat the first
   exactly.  Returns the rounds, each search with its probe, the number
   of failed searches and the peak memory after the first round. *)
let catalogue_rounds ?(probed = false) ~jobs seconds =
  let catalogue, peak =
    peak_after_first (fun () ->
        List.map
          (fun sc ->
            let p = probe ~jobs in
            let telemetry = if probed then Some (sink p) else None in
            (search ?telemetry ~jobs sc, p))
          Sc.all)
  in
  let rs = rounds ~seconds catalogue in
  let key (r, _) = List.map (fun (s, _) -> exact s) r in
  List.iteri
    (fun i r ->
      if key r <> key (List.hd rs) then
        error "explore at jobs=%d: round %d differs from round 0" jobs i)
    rs;
  let failed = ref 0 in
  List.iter
    (fun (r, _) ->
      List.iter
        (fun (s, _) ->
          if search_failed s then begin
            incr failed;
            failure "explore %s: violation set [%s], expected [%s]%s"
              s.sc.Sc.name (String.concat "; " s.found)
              (String.concat "; " s.sc.Sc.expect)
              (if s.stats.Ex.complete then "" else ", budget exhausted")
          end)
        r)
    rs;
  (rs, !failed, !peak)

let run ~seconds ~trace =
  let jobs = 1 in
  (* Warm-up on the smallest scenario. *)
  ignore (search ~jobs (Option.get (Sc.find "wakeup-waiting")));
  selftest ();
  (* A traced run measures untraced, traced and jobs=nproc rounds in
     equal shares of its time. *)
  let phase = if trace then seconds /. 3. else seconds in
  let rs, failed, peak = catalogue_rounds ~jobs phase in
  let first = List.map fst (fst (List.hd rs)) in
  let wall = median_wall rs in
  let executions = total (fun st -> st.Ex.executions) first in
  let attempted = List.length first * List.length rs in
  if not trace then
    {
      attempted;
      failed;
      metrics =
        [
          ("wall_s", Float wall);
          ("units_per_s", Float (float_of_int executions /. wall));
          ("cpu_s", Float (median_cpu rs));
          ("peak_rss_mb", Float peak);
        ];
    }
  else begin
    let traced, _, _ = catalogue_rounds ~probed:true ~jobs phase in
    let parallel, _, _ = catalogue_rounds ~jobs:nproc phase in
    let exact_round rs = List.map (fun (s, _) -> exact s) (fst (List.hd rs)) in
    if exact_round traced <> exact_round rs then
      error "explore: traced rounds differ from untraced ones";
    if exact_round parallel <> exact_round rs then
      error "explore: jobs=%d differs from jobs=1" nproc;
    let searches = List.concat_map (fun (r, _) -> r) traced in
    let steps = total (fun st -> st.Ex.dpor_steps) first in
    let traced_secs = List.fold_left (fun a (s, _) -> a +. s.secs) 0. searches in
    let scenario_secs (sc : Sc.t) =
      List.filter_map (fun (s, _) -> if s.sc == sc then Some s.secs else None) searches
    in
    {
      attempted;
      failed;
      metrics =
        [
          ("firefly.explore_executions", Int executions);
          ("firefly.explore_sleep_blocked", Int (total (fun st -> st.Ex.sleep_blocked) first));
          ("firefly.explore_steps_per_execution", Float (per (float_of_int steps) executions));
          ( "firefly.explore_us_per_execution",
            Float (us (per traced_secs (executions * List.length traced))) );
          ("sim_steps_per_s", Float (float_of_int steps /. wall));
        ]
        @ List.map
            (fun (sc : Sc.t) ->
              (Printf.sprintf "firefly.explore.%s_s" sc.Sc.name, Float (median (scenario_secs sc))))
            Sc.all
        @ runner_metrics ~jobs
            ~walls:(List.map (fun (s, _) -> s.secs) searches)
            (List.map snd searches)
        @ [
            ("runner.speedup", Float (wall /. median_wall parallel));
            ("trace_overhead_frac", Float ((median_wall traced /. wall) -. 1.));
          ];
    }
  end
