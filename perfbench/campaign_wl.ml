(* Workload campaign-chaos: generated scenarios on the simulator under
   fault plans, through [Campaign.run] at jobs = nproc.  The traced run
   decomposes the same cells into per-layer calls, and runs the campaign
   on the real-hardware backend for that layer's metrics. *)

open Measure
open Report
module Bk = Threads_backend.Backend
module Campaign = Threads_gen.Campaign
module Oracle = Threads_gen.Oracle
module Generate = Threads_gen.Generate
module Prog = Threads_gen.Prog
module Engine = Threads_fault.Engine
module Conformance = Threads_model.Conformance
module M = Firefly.Machine
module Matrix = Threads_runner.Matrix

let iface = Spec_core.Threads_interface.final

(* Cells per campaign.  Most chaos cells take well under a millisecond,
   but a few run the fault engine's whole step budget and dominate the
   cost, so the seed-to-seed spread of a run falls only as the number of
   distinct cells grows: a run measures several campaigns. *)
let cells = 32_000

(* Campaigns per run: about one per 7 s of the run's --seconds on a
   2-core host, fixed by --seconds alone so that a seed always names the
   same inputs. *)
let campaigns ~seconds = max 1 (int_of_float (seconds /. 7.))

(* Campaign [r] of a run uses seed [seed + 1000 r], so the first one is
   [repro generate --seed=SEED --runs=32000] and replays from the CLI. *)
let config ~seed ~chaos ~runs r =
  {
    Campaign.policy = Generate.Safe;
    runs;
    seed = seed + (1000 * r);
    chaos;
    shrink = false;
  }

let sim () = Option.get (Bk.find "sim")

(* One cell, layer by layer: what [Oracle.run] does, with each layer's
   call timed and its work counted. *)
type cell = {
  label : string;
  failed : bool;
  gen_s : float;
  ops : int;
  run_s : float;
  steps : int;
  budget : bool;  (* the fault engine's step budget ended the run *)
  injected : int;
  cycles : int;
  check_s : float;
  events : int;
}

let first_violation (r : Conformance.report) =
  match r.Conformance.errors with
  | e :: _ -> Some e.Conformance.event.Spec_trace.action
  | [] -> None

(* [Crosscheck]'s chaos classification, labelled as [Oracle] labels it. *)
let chaos_label (o : Engine.outcome) report =
  let failures = M.failures o.Engine.machine in
  let crash_only = List.for_all (fun (_, e) -> e = M.Crash_stopped) failures in
  let injected = o.Engine.injected <> [] in
  match (first_violation report, o.Engine.verdict) with
  | Some a, _ -> ("violation:" ^ a, true)
  | None, Engine.Completed when failures = [] -> ("conformant", false)
  | None, (Engine.Completed | Engine.Deadlock _ | Engine.Step_budget)
    when crash_only && injected ->
    ("diagnosed", false)
  | None, _ -> ("unexplained", true)

(* [Oracle]'s classification of a run without a fault plan. *)
let plain_label policy (o : Bk.outcome) report =
  let strict = Generate.deadlock_is_failure policy in
  match first_violation report with
  | Some a -> ("violation:" ^ a, true)
  | None -> (
    match o.Bk.verdict with
    | Bk.Completed -> ("conformant", false)
    | Bk.Deadlocked ->
      if strict then ("stranded", true) else ("deadlock (free policy)", false)
    | Bk.Crashed "step limit" ->
      if strict then ("exhausted", true)
      else ("step budget (free policy)", false)
    | Bk.Crashed _ -> ("crashed", true))

(* A cell whose run raises is a failed unit labelled with the exception. *)
let raised e = ("raised: " ^ Printexc.to_string e, true)

let oracle_run backend config i =
  match Oracle.run backend (Campaign.scenario_of_cell config backend i) with
  | Oracle.Pass l -> (l, false)
  | Oracle.Fail (k, _) -> (Oracle.kind_name k, true)
  | exception e -> raised e

let layered_cell_exn (backend : Bk.t) config i =
  let s, gen_s = timed (fun () -> Campaign.scenario_of_cell config backend i) in
  let wl = Prog.to_workload ~name:"gen" s.Oracle.program in
  let ops = Prog.size s.Oracle.program in
  match s.Oracle.plan with
  | Some plan ->
    let driver = Option.get backend.Bk.chaos in
    let (_, o), run_s = timed (fun () -> driver ~seed:s.Oracle.seed ~plan wl) in
    let report, check_s =
      timed (fun () -> Conformance.check iface (M.trace o.Engine.machine))
    in
    let label, failed = chaos_label o report in
    {
      label;
      failed;
      gen_s;
      ops;
      run_s;
      steps = o.Engine.steps;
      budget = o.Engine.verdict = Engine.Step_budget;
      injected = List.length o.Engine.injected;
      cycles = M.total_cycles o.Engine.machine;
      check_s;
      events = report.Conformance.events;
    }
  | None ->
    let o, run_s = timed (fun () -> backend.Bk.run ~seed:s.Oracle.seed wl) in
    let report, check_s = timed (fun () -> Conformance.check iface o.Bk.trace) in
    let label, failed = plain_label s.Oracle.policy o report in
    {
      label;
      failed;
      gen_s;
      ops;
      run_s;
      steps = Option.value ~default:0 o.Bk.steps;
      budget = false;
      injected = 0;
      cycles = 0;
      check_s;
      events = report.Conformance.events;
    }

let layered_cell backend config i =
  try layered_cell_exn backend config i
  with e ->
    let label, failed = raised e in
    {
      label;
      failed;
      gen_s = 0.;
      ops = 0;
      run_s = 0.;
      steps = 0;
      budget = false;
      injected = 0;
      cycles = 0;
      check_s = 0.;
      events = 0;
    }

(* The deterministic counts of a campaign's layered cells. *)
let exact_counts cells =
  let sum f = Array.fold_left (fun a c -> a + f c) 0 cells in
  [
    ("gen.ops", sum (fun c -> c.ops));
    ("fault.steps", sum (fun c -> c.steps));
    ("fault.budget_runs", sum (fun c -> Bool.to_int c.budget));
    ("fault.injected", sum (fun c -> c.injected));
    ("firefly.sim_cycles", sum (fun c -> c.cycles));
    ("model.events", sum (fun c -> c.events));
    ("labels", Hashtbl.hash (Array.map (fun c -> c.label) cells));
  ]

let failed_cells what cells =
  Array.to_list cells
  |> List.mapi (fun i c -> (i, c))
  |> List.filter (fun (i, c) ->
         if c.failed then failure "%s cell %d: %s" what i c.label;
         c.failed)
  |> List.length

(* [Campaign.run] re-raises the exception of the lowest-index cell that
   raised and drops every other cell's classification, so a campaign
   that raised is classified again cell by cell. *)
let failed_by_cell backend config =
  Matrix.map ~jobs:nproc ~n:config.Campaign.runs (fun i ->
      match oracle_run backend config i with
      | label, true -> Some (i, label)
      | _, false -> None)
  |> Array.to_list |> List.filter_map Fun.id

(* One timed [Campaign.run]: its classes (none if it raised), its
   failed cells, and its wall and CPU seconds. *)
type outcome = {
  classes : (string * int) list option;
  failed : int;
  wall : float;
  cpu : float;
}

let campaign ~jobs backend config =
  let seed = config.Campaign.seed in
  let c0 = cpu_now () and t0 = now () in
  let r = try Ok (Campaign.run ~jobs backend config) with e -> Error e in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  match r with
  | Ok r ->
    Printf.printf "campaign seed %d, jobs=%d:" seed jobs;
    List.iter (fun (l, n) -> Printf.printf " %s=%d" l n) r.Campaign.classes;
    print_newline ();
    List.iter
      (fun (i, k) -> failure "campaign seed %d cell %d: %s" seed i (Oracle.kind_name k))
      r.Campaign.failures;
    { classes = Some r.Campaign.classes; failed = List.length r.Campaign.failures; wall; cpu }
  | Error e ->
    failure "campaign seed %d raised %s" seed (Printexc.to_string e);
    let failed = failed_by_cell backend config in
    List.iter (fun (i, l) -> failure "campaign seed %d cell %d: %s" seed i l) failed;
    { classes = None; failed = max 1 (List.length failed); wall; cpu }

let check_exact what ~expected actual =
  List.iter2
    (fun (k, a) (_, b) ->
      if a <> b then error "%s: exact count %s is %d, expected %d" what k b a)
    expected actual

(* Failure-accounting self-test: the cell loop on the [naive] backend
   (conditions as binary semaphores, which strands waiters), chaos off,
   must report failures, and its per-layer labels must agree with
   [Oracle.run]. *)
let naive_selftest ~seed =
  let naive = Option.get (Bk.find "naive") in
  let config = config ~seed ~chaos:false ~runs:200 0 in
  let failed = ref 0 in
  for i = 0 to config.Campaign.runs - 1 do
    let c = layered_cell naive config i in
    let label, _ = oracle_run naive config i in
    if label <> c.label then
      error "self-test: naive cell %d: layered label %s, Oracle.run %s" i
        c.label label;
    if c.failed then incr failed
  done;
  if !failed = 0 then
    error "self-test: the naive backend reported no failed cell in %d"
      config.Campaign.runs;
  let frac = per (float_of_int !failed) config.Campaign.runs in
  Printf.printf "self-test: naive backend failed_frac = %.4f (%d of %d cells)\n"
    frac !failed config.Campaign.runs;
  ("selftest.naive_failed_frac", Float frac)

(* Per-layer metrics of one campaign's layered cells; [wall] is its
   untraced wall seconds. *)
let layers cells ~wall =
  let time f = Array.fold_left (fun a c -> a +. f c) 0. cells in
  let count f = Array.fold_left (fun a c -> a + f c) 0 cells in
  let mean_us f = Float (us (per (time f) (Array.length cells))) in
  let exact = exact_counts cells in
  let ex k = Int (List.assoc k exact) in
  let steps = count (fun c -> c.steps) in
  [
    ("gen.generate_us", mean_us (fun c -> c.gen_s));
    ("gen.ops", ex "gen.ops");
    ("fault.run_us", mean_us (fun c -> c.run_s));
    ("fault.steps", ex "fault.steps");
    ("fault.ns_per_step", Float (1e9 *. per (time (fun c -> c.run_s)) steps));
    ("fault.budget_runs", ex "fault.budget_runs");
    ( "fault.budget_steps_frac",
      Float (per (float_of_int (count (fun c -> if c.budget then c.steps else 0))) steps) );
    ("fault.injected", ex "fault.injected");
    ("model.check_us", mean_us (fun c -> c.check_s));
    ("model.events", ex "model.events");
    ( "model.ns_per_event",
      Float (1e9 *. per (time (fun c -> c.check_s)) (count (fun c -> c.events))) );
    ("firefly.sim_cycles", ex "firefly.sim_cycles");
    ("sim_steps_per_s", Float (float_of_int steps /. wall));
  ]

(* Real-hardware layer: the campaign on the [multicore] backend (OCaml 5
   domains), chaos off, jobs=1 since the backend spawns a domain per
   thread.  Its wall time swings with the host's scheduling of those
   domains, so it is a layer metric of the traced run. *)
let multicore_cells = 1000

let multicore_layer ~seed =
  let mc = Option.get (Bk.find "multicore") in
  let config = config ~seed ~chaos:false ~runs:multicore_cells 0 in
  let cells = Array.init multicore_cells (layered_cell mc config) in
  ( failed_cells "multicore" cells,
    ( "multicore.run_us",
      Float (us (per (Array.fold_left (fun a c -> a +. c.run_s) 0. cells) multicore_cells)) ) )

(* Calibration: one lock taken and released by one domain, then by two
   domains at once, against [Stdlib.Mutex].  Each loop is written out so
   that every arm times direct calls, not calls through a closure. *)
module MC = Threads_multicore.Multicore
module S = MC.Sync

let pairs = 1_000_000
let contended_pairs = 200_000
let ns_per_pair n secs = secs /. float_of_int n *. 1e9
let median_of_5 f = median (List.init 5 (fun _ -> f ()))

let uncontended_ns () =
  let m = S.mutex () in
  ns_per_pair pairs
    (snd
       (timed (fun () ->
            for _ = 1 to pairs do
              S.acquire m;
              S.release m
            done)))

let stdlib_uncontended_ns () =
  let m = Mutex.create () in
  ns_per_pair pairs
    (snd
       (timed (fun () ->
            for _ = 1 to pairs do
              Mutex.lock m;
              Mutex.unlock m
            done)))

let contended_ns () =
  MC.run (fun () ->
      let m = S.mutex () in
      let loop () =
        for _ = 1 to contended_pairs do
          S.acquire m;
          S.release m
        done
      in
      ns_per_pair (2 * contended_pairs)
        (snd
           (timed (fun () ->
                let a = S.fork loop and b = S.fork loop in
                S.join a;
                S.join b))))

let stdlib_contended_ns () =
  let m = Mutex.create () in
  let loop () =
    for _ = 1 to contended_pairs do
      Mutex.lock m;
      Mutex.unlock m
    done
  in
  ns_per_pair (2 * contended_pairs)
    (snd
       (timed (fun () ->
            let a = Domain.spawn loop and b = Domain.spawn loop in
            Domain.join a;
            Domain.join b)))

let calibrate () =
  [
    ("multicore.uncontended_ns", Float (median_of_5 uncontended_ns));
    ("multicore.stdlib_uncontended_ns", Float (median_of_5 stdlib_uncontended_ns));
    ("multicore.contended_ns", Float (median_of_5 contended_ns));
    ("multicore.stdlib_contended_ns", Float (median_of_5 stdlib_contended_ns));
  ]

(* The traced run works on the run's first campaign: untraced at
   jobs=nproc, layered with the runner probed at jobs=nproc, layered
   again at jobs=1 against [Oracle.run], and untraced at jobs=1 for the
   speedup; then the real-hardware layer. *)
let traced ~seed ~selftest =
  let sim = sim () in
  let config = config ~seed ~chaos:true ~runs:cells 0 in
  let untraced = campaign ~jobs:nproc sim config in
  let p = probe ~jobs:nproc in
  let layered, traced_wall =
    timed (fun () ->
        Matrix.map ~telemetry:(sink p) ~jobs:nproc ~n:cells (layered_cell sim config))
  in
  let reference =
    Array.init cells (fun i ->
        let c = layered_cell sim config i in
        let label, _ = oracle_run sim config i in
        if label <> c.label then
          error "cell %d: layered label %s, Oracle.run %s" i c.label label;
        c)
  in
  check_exact
    (Printf.sprintf "layered cells at jobs=1 vs jobs=%d" nproc)
    ~expected:(exact_counts layered) (exact_counts reference);
  let serial = campaign ~jobs:1 sim config in
  if serial.classes <> untraced.classes then
    error "campaign classes differ between jobs=1 and jobs=%d" nproc;
  let mc_failed, mc_run = multicore_layer ~seed in
  {
    attempted = cells + multicore_cells;
    failed = untraced.failed + mc_failed;
    metrics =
      layers layered ~wall:untraced.wall
      @ runner_metrics ~jobs:nproc ~walls:[ traced_wall ] [ p ]
      @ [
          ("runner.speedup", Float (serial.wall /. untraced.wall));
          ("trace_overhead_frac", Float ((traced_wall /. untraced.wall) -. 1.));
          selftest;
          mc_run;
        ]
      @ calibrate ();
  }

let run ~seed ~seconds ~trace =
  let sim = sim () in
  (* Warm-up: lazy initialization and heap growth happen before timing.
     Its cells open the first campaign, which counts their failures. *)
  (try ignore (Campaign.run ~jobs:nproc sim (config ~seed ~chaos:true ~runs:200 0))
   with _ -> ());
  let selftest = naive_selftest ~seed in
  if trace then traced ~seed ~selftest
  else begin
    let n = campaigns ~seconds in
    let outcomes =
      List.init n (fun r -> campaign ~jobs:nproc sim (config ~seed ~chaos:true ~runs:cells r))
    in
    let sum f = List.fold_left (fun a o -> a +. f o) 0. outcomes in
    let wall = sum (fun o -> o.wall) in
    {
      attempted = n * cells;
      failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes;
      metrics =
        [
          ("wall_s", Float wall);
          ("units_per_s", Float (float_of_int (n * cells) /. wall));
          ("cpu_s", Float (sum (fun o -> o.cpu)));
          ("peak_rss_mb", Float (peak_rss_mb ()));
        ];
    }
  end
