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
    + otherwise steps the thread the pick returns, or no thread if the
      pick returns a negative tid (the processors idle).

    Every iteration counts as one step, including a clock jump and an
    idle one. *)

type verdict =
  | Completed  (** every thread finished *)
  | Deadlock of Threads_util.Tid.t list  (** the blocked threads *)
  | Step_limit  (** the bound was hit with runnable threads remaining *)

type report = {
  verdict : verdict;
  steps : int;
  machine : Machine.t;  (** for trace/counter inspection *)
}

(** [terminal m] is the verdict of a machine with no runnable thread and
    no timed event outstanding: [Deadlock] with the blocked threads while
    any is left, else [Completed].  Every untimed driver and every
    {!Explore} runner ends a quiescent run with it. *)
val terminal : Machine.t -> verdict

(** [drive ?trigger ~max_steps pick m] runs the loop above on an already
    built machine.  [trigger] (default: none) is called at the start of
    every iteration with the number of iterations so far, and returns
    whether it still has work ahead, which keeps a quiescent run going.
    [pick] chooses among the non-empty runnable set, or returns a
    negative tid to idle for the iteration. *)
val drive :
  ?trigger:(int -> bool) -> max_steps:int -> Sched.t -> Machine.t -> report

(** [run ?max_steps ?strategy build] creates a machine, passes it to
    [build] (which spawns root threads via {!Machine.spawn_root}), then
    {!drive}s it under [strategy] until completion, deadlock or
    [max_steps] (default 1_000_000).

    If a thread fails with an unexpected exception the failure is recorded
    in the machine ({!Machine.failures}) and the run continues — tests
    decide how strict to be. *)
val run :
  ?max_steps:int ->
  ?strategy:Sched.t ->
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
