(** The chaos engine: replays a {!Plan} against a machine-hosted backend
    while {!Firefly.Interleave.drive} steps it.  The engine has no
    stepping loop of its own: it fires the plan's triggers from the
    loop's trigger hook, and keeps stalled threads out of the loop's pick.

    The engine is the only party that perturbs the run: delayed/dropped
    wakeups go through the machine's wakeup-interrupt filter; spurious
    wakeups, alert storms and contention bursts run as {e injector
    threads} through the chaos hooks the package registered at object
    creation, so they execute real package code with real events; stalls
    and crash-stops act on the schedule and thread set directly.  Every
    injected fault is recorded in {!Firefly.Machine.faults} (and the
    [chaos.faults] counter) for blame attribution.

    Runs are deterministic: equal (seed, plan, build) yield equal
    schedules, traces and fault records.  A run that an injected fault
    has wedged (e.g. a dropped wakeup or a crash-stop holding the package
    lock) terminates with {!Step_budget} or {!Deadlock} instead of
    hanging.  When every thread left spins on a word nobody can clear and
    the plan has no trigger left, the driver loop proves the livelock and
    stops at its onset with a witness; otherwise the step budget is the
    watchdog. *)

type verdict =
  | Completed
  | Deadlock of Threads_util.Tid.t list  (** blocked threads *)
  | Step_budget
      (** stopped without progress: the budget ran out, or the driver
          loop proved a livelock ([livelock] in the outcome) *)

type outcome = {
  verdict : verdict;
  steps : int;
  machine : Firefly.Machine.t;
      (** inspect trace / failures / metrics post-run *)
  injected : Firefly.Machine.fault list;
      (** every fault injected or observed, in sequence order *)
  livelock : Firefly.Interleave.witness option;
      (** the spinners, their words and holders when the run stopped at a
          proved livelock ({!Firefly.Interleave.drive}) *)
}

val default_budget : int
val pp_verdict : Format.formatter -> verdict -> unit

(** [run ~plan build] creates a machine, installs the wakeup filter,
    runs [build] (which must spawn the root workload thread), then
    drives the interleaving while firing the plan's triggers.  A trigger
    at step [n] fires at the start of the loop's [n]th iteration; clock
    jumps and idle iterations count as steps. *)
val run :
  ?strategy:Firefly.Sched.t ->
  ?max_steps:int ->
  ?seed:int ->
  plan:Plan.t ->
  (Firefly.Machine.t -> unit) ->
  outcome
