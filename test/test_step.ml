(* The simulator's hot path: [Machine.step] and the drivers around it.

   Two kinds of pin.  The runnable set is memoised inside the machine and
   dropped at every status change; generated programs are stepped under
   each driver (Interleave, Fault.Engine, Timed) with kills, delayed and
   dropped wakeups, timers and interrupt threads, and the memo is
   compared with a fresh scan of thread statuses at every scheduling
   point.  And the E10 sweep the benchmark times is pinned by exact
   totals (steps, cycles) and by one contended run's counters and obs
   snapshot, so a later hot-path change cannot shift a schedule
   silently.  Its preempting-mode livelocks stop at their onset; the
   same runs, continued to the cap by [Livelock_oracle], keep the values
   of the runs that burned it.  The Nub spin-lock's wait loop gets its
   own pins: a chaos run with every host-side stream on, a spinner
   crash-stopped mid-wait and a spinner whose code after the winning TAS
   raises. *)

module M = Firefly.Machine
module Ops = Firefly.Machine.Ops
module I = Obs.Instrument
module E10 = Threads_harness.E10
module Gen = Threads_gen
module Wl = Threads_backend.Workload
module Plan = Threads_fault.Plan
module Engine = Threads_fault.Engine
module Rng = Threads_util.Rng

(* ---- the runnable memo ---- *)

let fresh_scan m =
  List.filter
    (fun tid ->
      match M.status m tid with
      | M.Runnable -> true
      | M.Blocked | M.Finished | M.Failed _ -> false)
    (M.all_tids m)

let checks = ref 0

let memo_mismatch m =
  incr checks;
  let memo = M.runnable m and scan = fresh_scan m in
  if memo = scan then None
  else
    let show l = String.concat ";" (List.map string_of_int l) in
    Some
      (Printf.sprintf "runnable memo [%s] differs from a fresh scan [%s]"
         (show memo) (show scan))

let check_memo m = Option.iter Alcotest.fail (memo_mismatch m)

(* A strategy that checks the memo before every scheduling decision, that
   is after every step the driver took. *)
let checking (inner : Firefly.Sched.t) : Firefly.Sched.t =
 fun m runnable ->
  check_memo m;
  inner m runnable

let features = [ Wl.Alerts; Wl.Timeouts; Wl.Interrupts ]

let program ~policy seed =
  Gen.Generate.program ~policy ~features (Rng.create seed)

let build prog m =
  let wl = Gen.Prog.to_workload ~name:"memo" prog in
  ignore
    (M.spawn_root m (fun () ->
         let module S =
           (val Taos_threads.Api.make (Taos_threads.Pkg.create ()))
         in
         ignore (wl.Wl.body (module S))))

let policies = [ Gen.Generate.Safe; Gen.Generate.Irq; Gen.Generate.Free ]
let seeds = List.init 20 (fun i -> i)

(* Generated programs rarely let a timer expire; this one always does: a
   TimedP with a one-cycle budget on a semaphore a peer holds. *)
let expiring =
  {
    Gen.Prog.mutexes = 0;
    sems = 1;
    flags = 0;
    tokens = 0;
    irqs = 0;
    threads = [ [ Gen.Prog.Sem (0, 20) ]; [ Gen.Prog.Timed_sem (0, 1) ] ];
    main = [];
  }

(* Every (program, seed) a sweep runs. *)
let cases =
  List.concat_map
    (fun policy -> List.map (fun seed -> (program ~policy seed, seed)) seeds)
    policies
  @ List.map (fun seed -> (expiring, seed)) seeds

(* What the sweeps exercised, so a sweep that silently stops covering a
   path fails. *)
type coverage = {
  mutable kills : int;
  mutable delayed : int;
  mutable dropped : int;
  mutable timeouts : int;
  mutable timers : int;
  mutable interrupts : int;
  mutable blocks : int;
}

let observe cov m =
  List.iter
    (fun (f : M.fault) ->
      let d = f.M.f_desc in
      if String.starts_with ~prefix:"crash-stop of" d then
        cov.kills <- cov.kills + 1;
      if String.starts_with ~prefix:"delayed wakeup of" d then
        cov.delayed <- cov.delayed + 1;
      if String.ends_with ~suffix:"dropped" d then
        cov.dropped <- cov.dropped + 1)
    (M.faults m);
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:".timeouts" name then
        cov.timeouts <- cov.timeouts + v;
      if
        String.ends_with ~suffix:".timed_ps" name
        || String.ends_with ~suffix:".timed_waits" name
      then cov.timers <- cov.timers + v;
      if name = "machine.blocks" then cov.blocks <- cov.blocks + v)
    (I.snapshot (M.obs m)).I.counters;
  List.iter
    (fun tid ->
      if M.is_interrupt m tid then cov.interrupts <- cov.interrupts + 1)
    (M.all_tids m)

let coverage () =
  {
    kills = 0;
    delayed = 0;
    dropped = 0;
    timeouts = 0;
    timers = 0;
    interrupts = 0;
    blocks = 0;
  }

let require what n =
  if n = 0 then Alcotest.failf "sweep never exercised %s" what

let test_memo_interleave () =
  let cov = coverage () in
  checks := 0;
  List.iter
    (fun (prog, seed) ->
      let r =
        Firefly.Interleave.run ~seed ~max_steps:20_000
          ~strategy:(checking (Firefly.Sched.random seed))
          (build prog)
      in
      check_memo r.Firefly.Interleave.machine;
      observe cov r.Firefly.Interleave.machine)
    cases;
  require "a block" cov.blocks;
  require "a timer" cov.timers;
  require "a timeout" cov.timeouts;
  require "an interrupt thread" cov.interrupts;
  Alcotest.(check bool) "checked at every step" true (!checks > 1000)

(* Explicit plans guarantee each fault family appears; the random plans
   mix them. *)
let plans seed =
  [
    {
      Plan.id = 0;
      actions =
        [ Plan.Drop_wakeup { after = 5 }; Plan.Drop_wakeup { after = 60 } ];
    };
    {
      Plan.id = 1;
      actions = [ Plan.Delay_wakeups { after = 0; width = 2_000; delay = 40 } ];
    };
    { Plan.id = 2; actions = [ Plan.Crash_stop { after = 40; tid = 1 } ] };
    {
      Plan.id = 3;
      actions = [ Plan.Stall { after = 10; tid = 1; duration = 60 } ];
    };
    Plan.random ~seed ~id:seed;
  ]

let test_memo_engine () =
  let cov = coverage () in
  checks := 0;
  List.iter
    (fun (prog, seed) ->
      List.iter
        (fun plan ->
          let o =
            Engine.run ~max_steps:20_000 ~seed ~plan
              ~strategy:(checking (Firefly.Sched.random seed))
              (build prog)
          in
          check_memo o.Engine.machine;
          observe cov o.Engine.machine)
        (plans seed))
    cases;
  require "a crash-stop" cov.kills;
  require "a delayed wakeup" cov.delayed;
  require "a dropped wakeup" cov.dropped;
  require "a timer" cov.timers;
  require "a timeout" cov.timeouts;
  require "an interrupt thread" cov.interrupts;
  Alcotest.(check bool) "checked at every step" true (!checks > 1000)

(* Timed has no strategy to wrap: an observer thread checks the memo
   between one-cycle ticks, so on a multiprocessor it runs between almost
   every pair of program steps.  It stops once no other thread can run.
   A mismatch is kept, not raised: an exception would only fail the
   observer's simulated thread. *)
let observer m mismatch =
  ignore
    (M.spawn_root m (fun () ->
         let self = Ops.self () in
         let others_runnable () =
           List.exists (fun tid -> tid <> self) (fresh_scan m)
         in
         while others_runnable () do
           (match (!mismatch, memo_mismatch m) with
           | None, (Some _ as found) -> mismatch := found
           | _ -> ());
           Ops.tick 1
         done))

let test_memo_timed () =
  let cov = coverage () in
  checks := 0;
  List.iter
    (fun (prog, seed) ->
      let mismatch = ref None in
      let r =
        Firefly.Timed.run ~processors:3 ~seed ~max_cycles:200_000 (fun m ->
            build prog m;
            observer m mismatch)
      in
      Option.iter Alcotest.fail !mismatch;
      check_memo r.Firefly.Timed.machine;
      observe cov r.Firefly.Timed.machine)
    cases;
  require "a block" cov.blocks;
  require "an interrupt thread" cov.interrupts;
  Alcotest.(check bool) "checked throughout" true (!checks > 1000)

(* ---- exactness pins for E10's sweep ---- *)

(* E10's sweep stops each preempting-mode livelock at its onset.  With
   [~extend] every run cut short is continued to the 200 000-step cap by
   the differential oracle, which must reproduce the totals of the sweep
   before the livelock check existed. *)
let e10_cap = 200_000

let extend_e10 ~prefer ~seed (r : Firefly.Interleave.report) =
  match r.livelock with
  | None -> r.steps
  | Some w ->
    Livelock_oracle.extend
      ~what:(Printf.sprintf "E10 seed %d" seed)
      ~preempt:prefer ~cap:e10_cap ~steps:r.steps r.machine w;
    e10_cap

let e10_totals ?(extend = false) ~prefer () =
  let steps = ref 0 and cycles = ref 0 in
  for seed = 0 to 39 do
    let r = E10.pv_run ~prefer ~seed () in
    steps :=
      !steps + if extend then extend_e10 ~prefer ~seed r else r.steps;
    cycles := !cycles + M.total_cycles r.machine
  done;
  (!steps, !cycles)

let test_e10_totals () =
  Alcotest.(check (pair int int))
    "other processor: steps, cycles over seeds 0-39" (5124, 5221)
    (e10_totals ~prefer:false ());
  Alcotest.(check (pair int int))
    "preempting: steps, cycles over seeds 0-39" (3177, 3772)
    (e10_totals ~prefer:true ());
  Alcotest.(check (pair int int))
    "preempting, livelocks continued to the cap" (802998, 1203499)
    (e10_totals ~extend:true ~prefer:true ())

(* Every preempting-mode run that does not finish is a proved livelock,
   stopped well before the cap: an interrupt spinning on the Nub word
   held by the non-interrupt thread it preempted. *)
let test_e10_witnesses () =
  let witnessed = ref 0 in
  for seed = 0 to E10.seeds - 1 do
    let r = E10.pv_run ~prefer:true ~seed () in
    let m = r.machine in
    match (r.verdict, r.livelock) with
    | Firefly.Interleave.Step_limit, Some w ->
      incr witnessed;
      if r.steps >= e10_cap then Alcotest.failf "seed %d ran to the cap" seed;
      if w = [] then Alcotest.failf "seed %d: empty witness" seed;
      List.iter
        (fun (s : Firefly.Interleave.spinner) ->
          match s.holder with
          | Some (h, Firefly.Interleave.Preempted)
            when M.is_interrupt m s.spinner && not (M.is_interrupt m h) ->
            ()
          | _ ->
            Alcotest.failf "seed %d: unexpected witness %s" seed
              (Firefly.Interleave.describe_witness w))
        w
    | Firefly.Interleave.Step_limit, None ->
      Alcotest.failf "seed %d: step limit without a witness" seed
    | (Firefly.Interleave.Completed | Firefly.Interleave.Deadlock _), Some _ ->
      Alcotest.failf "seed %d: witness on a finished run" seed
    | (Firefly.Interleave.Completed | Firefly.Interleave.Deadlock _), None -> ()
  done;
  Alcotest.(check int) "livelocks proved over E10's seeds" 225 !witnessed

let render (s : I.snapshot) =
  List.map (fun (k, v) -> Printf.sprintf "c %s %d" k v) s.I.counters
  @ List.map (fun (k, v) -> Printf.sprintf "g %s %d" k v) s.I.gauges
  @ List.map
      (fun (k, (h : Threads_util.Stats.summary)) ->
        Printf.sprintf "h %s %d %.0f %.0f" k h.n h.min h.max)
      s.I.histograms
  @ List.map
      (fun (sp : I.span) ->
        Printf.sprintf "s %d %s %s %d %d" sp.I.track sp.I.name sp.I.cat sp.I.t0
          sp.I.t1)
      s.I.spans

let check_run what (r : Firefly.Interleave.report) ~counters ~snapshot =
  Alcotest.(check (list (pair string int)))
    (what ^ ": machine counters") counters (M.counters r.machine);
  Alcotest.(check (list string))
    (what ^ ": obs snapshot") snapshot
    (render (I.snapshot (M.obs r.machine)))

let test_contended_pinned () =
  check_run "contended, seed 8" (E10.pv_run ~seed:8 ())
    ~counters:[ ("nub.acquire", 5); ("nub.release", 1); ("spin.iterations", 4) ]
    ~snapshot:
      [
        "c machine.blocks 1";
        "c machine.wakes 1";
        "c sem#1.acquires 6";
        "c sem#1.fast_path_hits 1";
        "c sem#1.nub_acquires 5";
        "c sem#1.nub_releases 1";
        "c sem#1.releases 5";
        "c sem#1.spin_cycles 47";
        "c sem#1.spin_iters 4";
        "g sem#1.queue_hwm 1";
        "s 5 spin sem#1 spin 95 133";
        "s 0 blocked sched 133 149";
        "s 1 spin sem#1 spin 133 142";
      ];
  let r = E10.pv_run ~prefer:true ~seed:22 () in
  Alcotest.(check (pair int int))
    "livelocked, seed 22: steps, cycles" (55, 69)
    (r.steps, M.total_cycles r.machine);
  check_run "livelocked, seed 22" r
    ~counters:[ ("nub.acquire", 1); ("nub.release", 1) ]
    ~snapshot:
      [
        "c sem#1.acquires 4";
        "c sem#1.blocks 1";
        "c sem#1.fast_path_hits 4";
        "c sem#1.nub_acquires 1";
        "c sem#1.nub_releases 1";
        "c sem#1.releases 4";
        "g sem#1.queue_hwm 1";
      ];
  ignore (extend_e10 ~prefer:true ~seed:22 r);
  Alcotest.(check int) "livelocked, seed 22, continued: cycles" 299985
    (M.total_cycles r.machine);
  check_run "livelocked, seed 22, continued" r
    ~counters:
      [ ("nub.acquire", 1); ("nub.release", 1); ("spin.iterations", 99973) ]
    ~snapshot:
      [
        "c sem#1.acquires 4";
        "c sem#1.blocks 1";
        "c sem#1.fast_path_hits 4";
        "c sem#1.nub_acquires 1";
        "c sem#1.nub_releases 1";
        "c sem#1.releases 4";
        "c sem#1.spin_iters 99973";
        "g sem#1.queue_hwm 1";
      ]

(* ---- the Nub spin-lock's wait loop, every stream on ----

   A contended run under Fault.Engine (chaos active, so every failed TAS
   after the first is preceded by a backoff tick), with access recording,
   profiling and footprints on.  Everything a spin step can touch is
   pinned: schedule length, cycles, instructions, the spin counters, the
   access stream, the profile stream and each step's footprint. *)

module Mutex = Taos_threads.Mutex

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let kind_tag = function
  | M.A_load -> "load"
  | M.A_store -> "store"
  | M.A_tas won -> if won then "tas+" else "tas-"
  | M.A_clear -> "clear"
  | M.A_faa -> "faa"
  | M.A_lock_acq -> "acq"
  | M.A_lock_att -> "att"
  | M.A_lock_rel -> "rel"
  | M.A_spawn t -> Printf.sprintf "spawn%d" t
  | M.A_join t -> Printf.sprintf "join%d" t

let footprint_line fp =
  String.concat ","
    (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "r")) fp)

(* Three workers take one mutex eight times each; a contention burst
   from an injector thread hammers the Nub spin-lock meanwhile. *)
let mutex_workers m =
  M.set_recording m true;
  M.set_profiling m true;
  M.set_footprints m true;
  ignore
    (M.spawn_root m (fun () ->
         let pkg = Taos_threads.Pkg.create () in
         let mu = Mutex.create pkg in
         let worker () =
           for _ = 1 to 8 do
             Mutex.acquire mu;
             Ops.tick 3;
             Mutex.release mu
           done
         in
         let ws = List.init 3 (fun _ -> Ops.spawn worker) in
         List.iter Ops.join ws))

let test_chaos_spin_pinned () =
  let fps = ref [] in
  let strategy =
    let inner = Firefly.Sched.random 5 in
    fun m rs ->
      fps := footprint_line (M.last_footprint m) :: !fps;
      inner m rs
  in
  let plan =
    {
      Plan.id = 0;
      actions = [ Plan.Contention_burst { after = 20; count = 30 } ];
    }
  in
  let o = Engine.run ~seed:5 ~plan ~strategy mutex_workers in
  let m = o.Engine.machine in
  fps := footprint_line (M.last_footprint m) :: !fps;
  let spin_obs =
    List.filter
      (fun (k, _) ->
        String.ends_with ~suffix:".spin_iters" k
        || String.ends_with ~suffix:".spin_cycles" k)
      (I.snapshot (M.obs m)).I.counters
  in
  let accs =
    List.map
      (fun (a : M.access) ->
        Printf.sprintf "%d %d %s" a.M.a_tid a.M.a_addr (kind_tag a.M.a_kind))
      (M.accesses m)
  in
  Alcotest.(check string) "verdict" "completed"
    (Format.asprintf "%a" Engine.pp_verdict o.Engine.verdict);
  Alcotest.(check (list int))
    "steps, cycles, instructions" [ 574; 1315; 396 ]
    [ o.Engine.steps; M.total_cycles m; M.total_instructions m ];
  Alcotest.(check int) "spin.iterations" 69 (M.counter m "spin.iterations");
  Alcotest.(check (list (pair string int))) "spin obs counters"
    [ ("mutex#1.spin_cycles", 1445); ("mutex#1.spin_iters", 41) ]
    spin_obs;
  Alcotest.(check (pair int string))
    "access stream: length, digest"
    (463, "31aba73dc0b47a7f00f565cdafc49347")
    (M.access_count m, digest accs);
  Alcotest.(check int) "profile events" 318 (M.prof_event_count m);
  Alcotest.(check string) "obs snapshot digest" "30a3f0d01da627f207803e588cb043be"
    (digest (render (I.snapshot (M.obs m))));
  Alcotest.(check (pair int string))
    "footprints: count, digest"
    (575, "d79cb2886c1c0f920abaeb7e50f6e122")
    (List.length !fps, digest !fps)

(* A lock the root holds for forty ticks while [t1] spins on it. *)
module Spinlock = Taos_threads.Spinlock

let holder ~after_acquire m =
  M.set_recording m true;
  ignore
    (M.spawn_root m (fun () ->
         let l = Spinlock.create ~name:"held" () in
         Spinlock.acquire l;
         let t1 =
           Ops.spawn (fun () ->
               Spinlock.acquire ~obs:"held" l;
               after_acquire ();
               Spinlock.release l)
         in
         for _ = 1 to 40 do
           Ops.tick 1
         done;
         Spinlock.release l;
         Ops.join t1))

let lock_acqs_by tid m =
  List.filter
    (fun (a : M.access) -> a.M.a_tid = tid && a.M.a_kind = M.A_lock_acq)
    (M.accesses m)

(* Crash-stopping a spinner drops its wait: it never takes the lock. *)
let test_kill_spinner () =
  let acquired = ref false in
  let o =
    Engine.run ~seed:0 ~strategy:(Firefly.Sched.round_robin ())
      ~plan:{ Plan.id = 0; actions = [ Plan.Crash_stop { after = 30; tid = 1 } ] }
      (holder ~after_acquire:(fun () -> acquired := true))
  in
  let m = o.Engine.machine in
  Alcotest.(check bool) "spinner never acquired" false !acquired;
  Alcotest.(check int) "no lock acquisition by t1" 0
    (List.length (lock_acqs_by 1 m));
  Alcotest.(check bool) "t1 crash-stopped" true
    (M.status m 1 = M.Failed M.Crash_stopped);
  Alcotest.(check string) "verdict" "completed"
    (Format.asprintf "%a" Engine.pp_verdict o.Engine.verdict);
  Alcotest.(check (list int))
    "steps, cycles, instructions, spin.iterations" [ 59; 86; 50; 4 ]
    [
      o.Engine.steps;
      M.total_cycles m;
      M.total_instructions m;
      M.counter m "spin.iterations";
    ]

(* A spinner whose code after the winning TAS raises: the failure is
   recorded and the ambient slot is empty again after every step. *)
let test_spinner_raises () =
  let leaked = ref 0 in
  let strategy =
    let inner = Firefly.Sched.round_robin () in
    fun m rs ->
      if M.Probe.self () <> None then incr leaked;
      inner m rs
  in
  let r =
    Firefly.Interleave.run ~seed:0 ~strategy
      (holder ~after_acquire:(fun () -> failwith "after acquire"))
  in
  let m = r.Firefly.Interleave.machine in
  Alcotest.(check int) "ambient slot set between steps" 0 !leaked;
  Alcotest.(check bool) "ambient slot empty after the run" true
    (M.Probe.self () = None);
  Alcotest.(check (list (pair int string)))
    "failure recorded"
    [ (1, Printexc.to_string (Failure "after acquire")) ]
    (List.map (fun (tid, e) -> (tid, Printexc.to_string e)) (M.failures m));
  Alcotest.(check int) "t1 took the lock once" 1
    (List.length (lock_acqs_by 1 m));
  Alcotest.(check (list int))
    "steps, cycles, spin.iterations" [ 88; 107; 20 ]
    [
      r.Firefly.Interleave.steps;
      M.total_cycles m;
      M.counter m "spin.iterations";
    ]

let suite =
  ( "step",
    [
      Alcotest.test_case "runnable memo exact under Interleave" `Quick
        test_memo_interleave;
      Alcotest.test_case "runnable memo exact under Fault.Engine" `Quick
        test_memo_engine;
      Alcotest.test_case "runnable memo exact under Timed" `Quick
        test_memo_timed;
      Alcotest.test_case "E10 sweep totals pinned" `Quick test_e10_totals;
      Alcotest.test_case "contended E10 runs pinned" `Quick
        test_contended_pinned;
      Alcotest.test_case "chaos spin with every stream on pinned" `Quick
        test_chaos_spin_pinned;
      Alcotest.test_case "crash-stopped spinner never acquires" `Quick
        test_kill_spinner;
      Alcotest.test_case "spinner raising after its TAS" `Quick
        test_spinner_raises;
      Alcotest.test_case "E10 livelocks proved with witnesses" `Quick
        test_e10_witnesses;
    ] )
