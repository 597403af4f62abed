(** Instruction-granularity interleaving driver.

    Steps one runnable thread at a time under a {!Sched} strategy.  This is
    the correctness driver: it models threads running at arbitrary relative
    speeds, which is exactly the "programmer can reason as if there were as
    many processors as threads" stance the paper takes.

    {!drive} is the simulator's one untimed stepping loop: [run] uses it
    directly, and the fault engine ([Threads_fault.Engine]) steps through
    it with its two hooks.  Each iteration of the loop

    + stops with [Step_limit] once [max_steps] iterations have run;
    + calls the trigger hook, if any, with the iteration count;
    + delivers due timed events ({!Machine.fire_due_events});
    + if no thread is runnable, jumps the clock to the next timer or held
      wakeup ({!Machine.advance_to_next_event}), or, with none, lets the
      iteration pass if the trigger hook reported work ahead, or else
      ends with the {!terminal} verdict;
    + stops with [Step_limit] and a livelock {!witness} if the trigger
      hook reported no work ahead, no timed event is pending
      ({!Machine.timed_event_pending}) and every eligible thread is stuck
      spinning ({!Machine.stuck_spin}): no future step can change what
      any thread sees, so the run would only burn its bound;
    + otherwise steps the first runnable interrupt thread under
      [~preempt], else the thread the pick returns, or no thread if the
      pick returns a negative tid (the processors idle).

    The eligible threads are the runnable ones, or, under [~preempt]
    while an interrupt thread is runnable, the runnable interrupt
    threads: the hardware never runs the thread an interrupt preempted.
    The livelock check stops at the first eligible thread that is not
    stuck, so it costs a status lookup on most iterations.

    Every iteration counts as one step, including a clock jump and an
    idle one. *)

type verdict =
  | Completed  (** every thread finished *)
  | Deadlock of Threads_util.Tid.t list  (** the blocked threads *)
  | Step_limit
      (** stopped without progress: the bound was hit with runnable
          threads remaining, or a livelock was proved ([livelock] says
          which) *)

(** Why a livelocked spinner's word stays held. *)
type holder_state =
  | Crash_stopped  (** killed by {!Machine.kill} inside its critical section *)
  | Failed  (** escaped with another exception, lock still held *)
  | Finished  (** returned without releasing *)
  | Blocked
  | Preempted  (** runnable, but preempted by an interrupt thread *)
  | Spinning  (** runnable and itself stuck spinning *)

(** One stuck spinner: its word, the word's registered name
    ({!Machine.word_name}) and its holder per held-lock tracking
    ({!Machine.owner_of}), which runs with recording off.  [holder] is
    [None] when that tracking names no holder: a spin-lock release drops
    its record in the instruction before its clear, so a holder
    crash-stopped between the two leaves the word set with no holder on
    record. *)
type spinner = {
  spinner : Threads_util.Tid.t;
  word : int;
  word_name : string;
  holder : (Threads_util.Tid.t * holder_state) option;
}

(** Every eligible thread at the livelock's onset, in tid order. *)
type witness = spinner list

type report = {
  verdict : verdict;
  steps : int;
  machine : Machine.t;  (** for trace/counter inspection *)
  livelock : witness option;
      (** [Some] iff the loop proved a livelock and stopped at its onset
          with [Step_limit] *)
}

(** [describe_witness w] is one line, spinners grouped by word, e.g.
    ["t1, t4 spin on nub-lock held by t2 (crash-stopped)"]. *)
val describe_witness : witness -> string

(** [terminal m] is the verdict of a machine with no runnable thread and
    no timed event outstanding: [Deadlock] with the blocked threads while
    any is left, else [Completed].  Every untimed driver and every
    {!Explore} runner ends a quiescent run with it. *)
val terminal : Machine.t -> verdict

(** [drive ?trigger ?preempt ~max_steps pick m] runs the loop above on an
    already built machine.  [trigger] (default: none) is called at the
    start of every iteration with the number of iterations so far, and
    returns whether it still has work ahead, which keeps a quiescent run
    going and the livelock check off.  [preempt] (default [false]) models
    interrupts that preempt the only CPU: while an interrupt thread is
    runnable the first one is stepped and [pick] is not consulted.
    [pick] chooses among the non-empty runnable set, or returns a
    negative tid to idle for the iteration. *)
val drive :
  ?trigger:(int -> bool) ->
  ?preempt:bool ->
  max_steps:int ->
  Sched.t ->
  Machine.t ->
  report

(** [run ?max_steps ?strategy ?preempt build] creates a machine, passes
    it to [build] (which spawns root threads via {!Machine.spawn_root}),
    then {!drive}s it under [strategy] and [preempt] until completion,
    deadlock, a proved livelock or [max_steps] (default 1_000_000).

    If a thread fails with an unexpected exception the failure is recorded
    in the machine ({!Machine.failures}) and the run continues — tests
    decide how strict to be. *)
val run :
  ?max_steps:int ->
  ?strategy:Sched.t ->
  ?preempt:bool ->
  ?seed:int ->
  ?cost:Cost.t ->
  (Machine.t -> unit) ->
  report

(** [run_main ?max_steps ?strategy ?seed body] — convenience wrapper
    spawning a single root thread running [body]. *)
val run_main :
  ?max_steps:int ->
  ?strategy:Sched.t ->
  ?seed:int ->
  ?cost:Cost.t ->
  (unit -> unit) ->
  report
