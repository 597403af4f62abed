(** Cycle-accurate timed driver: P processors with per-processor clocks,
    priority scheduling, time slicing and context-switch costs — the
    performance driver for throughput/latency experiments.

    At each step the processor with the smallest clock acts: it executes
    one instruction of its current thread, preempts it at slice expiry (if
    another thread is waiting), or picks the highest-priority waiting
    thread.  Idle processors' clocks chase the busy ones, so cross-
    processor instruction order approximates true timing order.

    Timed events follow the same rule as in {!Interleave}: due timers and
    held wakeups are delivered before every decision, and when every
    processor idles the run jumps to the next event instead of ending.  A
    timed wait's deadline ([TimedP], [TimedWait]) is measured against the
    machine clock ({!Machine.total_cycles}: the cycles executed by all
    processors together, plus idle jumps), not against any processor's
    clock.  A jump of [n] cycles moves every processor clock by [n]. *)

type verdict = Completed | Deadlock of Threads_util.Tid.t list | Cycle_limit

type report = {
  verdict : verdict;
  machine : Machine.t;
  sim_cycles : int;  (** elapsed simulated time = max processor clock *)
  busy_cycles : int;  (** total non-idle cycles across processors *)
  context_switches : int;
  steps : int;
}

(** [run ~processors build] — [build] spawns the root threads.  Default
    [max_cycles] 50_000_000.  Interrupt-context threads preempt: whenever
    one is runnable it is scheduled first regardless of priority. *)
val run :
  processors:int ->
  ?seed:int ->
  ?cost:Cost.t ->
  ?max_cycles:int ->
  (Machine.t -> unit) ->
  report

(** [utilization report ~processors] is busy/(sim_cycles*processors). *)
val utilization : report -> processors:int -> float
