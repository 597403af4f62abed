(** The simulated shared-memory multiprocessor.

    Thread code is ordinary OCaml performing the effects in {!module:Ops};
    the machine holds one one-shot continuation per thread and executes
    exactly one effect ("instruction") per {!step}, so drivers control the
    interleaving at memory-access granularity.  Computation between effects
    is invisible to other threads, which matches a real machine: only
    loads, stores and interlocked operations are ordering points.

    The machine itself is single-threaded OCaml; concurrency is simulated,
    which is what makes runs deterministic and schedules replayable. *)

type t

type status =
  | Runnable
  | Blocked  (** descheduled; waiting for {!Ops.ready} *)
  | Finished
  | Failed of exn  (** the thread body escaped with an exception *)

(** An interrupt routine attempted to block (join or deschedule).  The
    argument names the blocking site.  Interrupt routines cannot protect
    shared data with a mutex — the paper's stated reason semaphores exist
    — so this is a programming (or fault-plan) error with its own
    diagnostic rather than a bare [Failure]. *)
exception Interrupt_blocked of string

(** Status exception of a thread removed by {!kill} (injected processor
    crash-stop). *)
exception Crash_stopped

(** {1 Fault injection (lib/fault)}

    The chaos engine installs a {!wake_verdict} filter over every
    package-level wakeup interrupt ({!Ops.ready}), may {!kill} threads
    mid-run, and runs package-registered injection hooks from injector
    threads.  Every injected fault lands in the cycle-stamped fault log
    ({!faults}) so post-mortem reports can attribute blame.  With no
    filter installed and no timers armed, none of this code runs: an
    uninjected machine is cycle- and schedule-identical to one built
    before this layer existed. *)

(** Filter verdict for one intercepted wakeup interrupt. *)
type wake_verdict =
  | Deliver  (** pass through unchanged *)
  | Delay of int  (** deliver [n] cycles later (widens the race window) *)
  | Drop  (** lose it — the classic lost-wakeup incident *)

(** One injected fault (or notable consequence), cycle-stamped. *)
type fault = { f_seq : int; f_cycle : int; f_desc : string }

(** {1 Low-level access stream (dynamic analysis)}

    With {!set_recording} on, the machine appends one {!access} per
    shared-memory instruction — and one per package-level lock event
    reported through {!Probe.lock_acquired}/{!Probe.lock_released} —
    stamped with the issuing thread and the lock ids it held.  Recording
    is host-side bookkeeping only (no cycles, no scheduling points, no
    randomness), so a recorded run is cycle- and schedule-identical to an
    unrecorded one.  [lib/analysis] consumes this stream. *)

(** Protocol role of a registered memory word (see
    {!Probe.register_word}).  The analyzers exempt synchronization words
    from race checking and derive happens-before edges from their
    operations; unregistered words are ordinary data. *)
type word_kind =
  | W_lock  (** TAS/clear mutual-exclusion word: spin-locks, mutex Lock-bits *)
  | W_sem  (** semaphore availability bit: V's clear releases to P's TAS *)
  | W_eventcount  (** monotone counter: advance releases to readers *)
  | W_atomic  (** deliberately unsynchronized single word (benign by design) *)
  | W_data  (** named ordinary data word; unregistered words are also data *)

type access_kind =
  | A_load
  | A_store
  | A_tas of bool  (** [true] = won the word (old value was 0) *)
  | A_clear
  | A_faa
  | A_lock_acq  (** package-level lock acquisition (addr = lock id) *)
  | A_lock_att  (** blocked/contended acquisition attempt *)
  | A_lock_rel
  | A_spawn of Threads_util.Tid.t
  | A_join of Threads_util.Tid.t

type access = {
  a_seq : int;
  a_tid : Threads_util.Tid.t;
  a_addr : int;  (** word address or lock id; [-1] for spawn/join *)
  a_kind : access_kind;
  a_locks : int list;  (** lock ids held (for [A_lock_acq]: before acquiring) *)
}

(** {1 Causal profiling stream (lib/profile)}

    With {!set_profiling} on, the machine appends one {!prof_event} per
    causal edge: merged run segments (cycles a thread consumed), block
    edges annotated by {!Probe.will_block} with the object waited on and
    its owner at that instant, wake edges annotated by {!Probe.handoff}
    with the waker and the object handed over, spawn/finish lifecycle
    points, and wakeup-waiting arms.  Host-side bookkeeping only: a
    profiled run is cycle- and schedule-identical to an unprofiled one. *)

(** What a blocked thread is waiting for. *)
type wait_target =
  | On_obj of int  (** mutex / condition / semaphore id *)
  | On_thread of Threads_util.Tid.t  (** join *)
  | On_unknown  (** deschedule with no package annotation *)

type prof_kind =
  | Pr_run of int
      (** merged run segment: the thread consumed cycles [pr_t, arg] *)
  | Pr_spawn of Threads_util.Tid.t  (** [pr_tid] spawned the child *)
  | Pr_block of wait_target * Threads_util.Tid.t option
      (** blocked on [target]; owner of the object at that instant *)
  | Pr_wake of Threads_util.Tid.t option * int option
      (** [pr_tid] was woken by the waker, handing over the object *)
  | Pr_wake_pending of Threads_util.Tid.t option * int option
      (** wakeup-waiting arm: the target was still runnable *)
  | Pr_finish

type prof_event = {
  pr_seq : int;  (** global order, dense from 0 *)
  pr_t : int;  (** cycle timestamp (segment start for [Pr_run]) *)
  pr_tid : Threads_util.Tid.t;  (** subject thread (the woken one for wakes) *)
  pr_kind : prof_kind;
}

(** Memory operation for {!Ops.mem_emit}.  [M_none] is a plain store-class
    instruction with no memory visible effect (used when the action commits
    purely in package bookkeeping, e.g. Alert's pending-set insert).
    Results: [M_read] the value, [M_tas] the {e old} word (0 = acquired),
    [M_faa] the old value, others 0. *)
type mem_op =
  | M_none
  | M_read of int
  | M_tas of int
  | M_clear of int
  | M_faa of int * int

(** {1 Effects performed by thread code} *)

module Ops : sig
  val read : int -> int
  val write : int -> int -> unit

  (** [tas a] atomically reads word [a] and sets it to 1; returns [true]
      iff it was already 1 (i.e. the lock was held). *)
  val tas : int -> bool

  (** [clear a] sets word [a] to 0. *)
  val clear : int -> unit

  (** [faa a n] fetch-and-add: returns the old value. *)
  val faa : int -> int -> int

  (** [alloc n] allocates [n] fresh zeroed words, returning the base
      address. *)
  val alloc : int -> int

  val self : unit -> Threads_util.Tid.t

  (** [spawn ?priority f] creates a new runnable thread. *)
  val spawn : ?priority:int -> (unit -> unit) -> Threads_util.Tid.t

  (** [join t] blocks until thread [t] finishes (normally or by failure). *)
  val join : Threads_util.Tid.t -> unit

  (** [deschedule_and_clear a] atomically blocks the calling thread and
      clears word [a] — the kernel "sleep releasing the spin-lock"
      primitive the Nub's deschedule path relies on. *)
  val deschedule_and_clear : int -> unit

  (** [ready t] moves a blocked thread to the runnable set.  If [t] is
      runnable but about to deschedule, the wakeup is remembered and the
      deschedule becomes a no-op (Saltzer's wakeup-waiting switch); readying
      a finished thread is a simulation error ([Failure]). *)
  val ready : Threads_util.Tid.t -> unit

  (** [emit ev] appends a trace event at the current instant (zero cost). *)
  val emit : Spec_trace.event -> unit

  (** [tick n] consumes [n] cycles of pure computation (one instruction). *)
  val tick : int -> unit

  (** [incr_counter name] bumps a named statistic (zero cost). *)
  val incr_counter : string -> unit

  (** [rand n] draws uniformly from [\[0, n)] using the machine's seeded
      generator (zero cost, deterministic). *)
  val rand : int -> int

  val set_priority : int -> unit

  (** [yield ()] is a zero-cost scheduling point (used by the cooperative
      uniprocessor backend). *)
  val yield : unit -> unit

  (** [mem_emit op thunk] performs memory operation [op] and, atomically in
      the same instruction, calls [thunk result]; if it returns an event it
      is appended to the trace at that instant.  This is how the Threads
      package linearizes its visible atomic actions: the event cannot be
      separated from the memory operation that commits the action.  The
      thunk may update package-level bookkeeping but must not perform
      machine effects. *)
  val mem_emit : mem_op -> (int -> Spec_trace.event option) -> int

  (** [spin a ~iters ~backoff ~cap] busy-waits until a test-and-set of
      word [a] wins — the Nub spin-lock's wait loop after a failed first
      {!tas}.  The machine runs the loop itself and resumes the caller
      only after the winning TAS, so a failed iteration costs no effect
      and no continuation switch on the host.  An iteration is these
      instructions, one driver {!step} each:
      + a zero-cost count: ["spin.iterations"] in {!counters} and, when
        [iters] is [Some k], obs counter [k] go up by one, and the
        machine reads whether chaos is active ({!set_chaos_active});
      + under chaos only, a backoff {!tick} of the current backoff, which
        then doubles, capped at [cap] ([backoff] is the first one);
      + the TAS, charged as {!tas} and recorded in the footprint and
        access streams like one.
      Steps, cycles, instructions and every stream are those of the same
      loop written with {!incr_counter}, {!tick} and {!tas}, so schedules
      are unchanged.  The counter updates are host-side probes: they run
      without the ambient slot, and a spinner crash-stopped by {!kill}
      never takes the word. *)
  val spin : int -> iters:string option -> backoff:int -> cap:int -> unit
end

(** {1 Observation probes (thread code, zero simulated cost)}

    Unlike {!Ops}, nothing here performs an effect: a probe call is not a
    scheduling point, charges no cycles, consumes no randomness, and is
    therefore invisible to the simulation — an instrumented run is
    cycle-identical to an uninstrumented one.  Probes record into the
    stepping machine's {!obs} registry and may be called from anywhere in
    thread code, including inside {!Ops.mem_emit} thunks (where [now]
    already includes the charged cost of the enclosing instruction).
    Outside a simulated thread every probe is a no-op. *)

module Probe : sig
  (** Current simulated time: the machine's running total-cycle clock. *)
  val now : unit -> int

  (** [emit ev] appends a trace event at the current instant without
      performing an effect.  For {!Ops.mem_emit} thunks whose single
      instruction linearizes more than one visible action (e.g. a monitor
      handoff: Release and the successor's Acquire commit together). *)
  val emit : Spec_trace.event -> unit

  (** The thread currently inside {!step} — i.e. the caller's own id when
      invoked from package code or a [mem_emit] thunk; [None] outside a
      machine.  Unlike {!Ops.self} this performs no effect, so it adds no
      scheduling point. *)
  val self : unit -> Threads_util.Tid.t option

  (** Fresh negative trace id for an object not backed by a memory word
      (Hoare conditions).  Allocated from the stepping machine, so the ids
      appearing in traces and reports depend only on the run — not on
      process history or the executing domain. *)
  val fresh_trace_id : unit -> int

  (** [touch ?write id] declares a host-level access to shared package
      state (cooperative queues, monitor holder fields) for the DPOR
      dependence stream.  Object ids live in their own pseudo-address
      range and never alias machine words.  No-op unless footprint
      tracking is on ({!set_footprints}). *)
  val touch : ?write:bool -> int -> unit

  (** [counter name n] adds [n]; [counter name 0] materializes the counter
      at 0 so it shows in reports. *)
  val counter : string -> int -> unit

  (** [sample name v] records a histogram sample (a cycle count). *)
  val sample : string -> int -> unit

  (** [gauge_max name v] raises a high-water gauge. *)
  val gauge_max : string -> int -> unit

  (** Spans are keyed by (current thread, name); see
      {!Obs.Instrument.span_begin}. *)
  val span_begin : ?cat:string -> string -> unit

  (** Returns the span duration in cycles, [None] without matching begin. *)
  val span_end : string -> int option

  (** Record an already-delimited span on the current thread's track. *)
  val span_add : ?cat:string -> string -> t0:int -> t1:int -> unit

  (** {2 Access-stream probes (lib/analysis)} *)

  (** [register_word addr kind name] classifies memory word [addr] for the
      analyzers.  A [W_lock] registration also names [addr] as a lock id
      (TAS-backed locks use their word address as their id). *)
  val register_word : int -> word_kind -> string -> unit

  (** [register_lock id name] names a package-level lock that is not
      backed by a TAS word (cooperative mutexes, Hoare monitors). *)
  val register_lock : int -> string -> unit

  (** [lock_acquired ?tid id] marks lock [id] as held by [tid] (default:
      the stepping thread) and records an [A_lock_acq].  [?tid] covers
      grants made on another thread's behalf, e.g. Hoare's signal handing
      the monitor to the resumed waiter.  Held-lock tracking works even
      with recording off. *)
  val lock_acquired : ?tid:Threads_util.Tid.t -> int -> unit

  val lock_released : ?tid:Threads_util.Tid.t -> int -> unit

  (** [lock_attempted id] records a contended acquisition about to block,
      so the lock-order graph sees the attempted edge even when the
      acquisition never succeeds (the classic deadlock). *)
  val lock_attempted : int -> unit

  (** {2 Causal-profiling probes (lib/profile)} *)

  (** {2 Timer probes (timed waits)}

      Host-side bookkeeping: arming charges no cycle and adds no
      scheduling point.  The deadline takes effect when the driver fires
      due events between steps ({!fire_due_events}); the victim is woken
      like any other wake and consumes {!take_timeout_fired} to tell
      expiry from a Signal/V wake. *)

  (** Arm (or re-arm) the calling thread's timer [cycles] from now. *)
  val set_timeout : cycles:int -> unit

  (** Disarm the calling thread's timer, clear any un-consumed fired flag
      and disarm its wakeup-waiting switch.  Call it only once the thread
      has left every wait queue: a wakeup still pending then is stale
      (the timer's own, or one that raced the expiry) and must not skip
      the thread's next deschedule. *)
  val cancel_timeout : unit -> unit

  (** Consume and return the calling thread's timer-fired flag. *)
  val take_timeout_fired : unit -> bool

  (** {2 Chaos probes (lib/fault)} *)

  (** True only while a fault-injection driver runs this machine: gates
      degradation heuristics (e.g. spin-lock backoff) so uninjected runs
      stay schedule-identical. *)
  val chaos_active : unit -> bool

  (** [register_chaos name f] registers a named package-level injection
      entry point (spurious wakeup, contention burst, alert); the chaos
      engine runs [f arg] from injector threads it spawns mid-run. *)
  val register_chaos : string -> (int -> unit) -> unit

  (** Record a package-level injected fault in the machine's fault log. *)
  val inject_fault : string -> unit

  (** [will_block obj] annotates the caller's imminent deschedule with the
      synchronization object it waits on; the machine resolves the
      object's owner when the block commits.  No-op unless profiling. *)
  val will_block : int -> unit

  (** [handoff ~obj target] annotates the next wake of [target] with the
      object whose ownership is handed over — call just before the
      [Ops.ready] in Release / Signal / Broadcast / V and in alert
      cancellations.  No-op unless profiling. *)
  val handoff : obj:int -> Threads_util.Tid.t -> unit
end

(** {1 Construction and stepping (driver side)} *)

(** [create ?seed ?cost ()] — [seed] feeds {!Ops.rand}. *)
val create : ?seed:int -> ?cost:Cost.t -> unit -> t

(** [spawn_root m f] adds a thread before (or during) a run; same semantics
    as {!Ops.spawn} but callable from outside.  A thread spawned with
    [~interrupt:true] models an interrupt routine: any attempt to block
    (deschedule or join) fails it with [Failure] — interrupt routines
    cannot protect shared data with a mutex, the paper's stated reason
    semaphores exist. *)
val spawn_root :
  ?priority:int -> ?interrupt:bool -> t -> (unit -> unit) -> Threads_util.Tid.t

(** [spawn_interrupt f] — raise an interrupt from {e inside} running
    thread code: spawns [f] as an interrupt-context thread
    ([spawn_root ~interrupt:true]) on the machine currently executing the
    calling thread on this domain.  The handler may post a semaphore (V)
    but fails if it tries to block.  Raises [Failure] when no machine is
    running on the calling domain (e.g. a hardware backend). *)
val spawn_interrupt : (unit -> unit) -> Threads_util.Tid.t

val is_interrupt : t -> Threads_util.Tid.t -> bool

val status : t -> Threads_util.Tid.t -> status
val priority : t -> Threads_util.Tid.t -> int

(** [runnable m] — runnable thread ids, ascending.

    The list is memoised and shared: repeated calls return the same
    (immutable) list until a thread's status next changes, so drivers can
    call this once per step without allocating.  A status change (block,
    wake, finish, kill) or a new thread drops the memo and the next call
    rescans.  Inside the machine every status write goes through one
    [set_status] helper, which is what keeps the memo exact. *)
val runnable : t -> Threads_util.Tid.t list

(** [blocked m] — blocked thread ids, ascending (a fresh scan). *)
val blocked : t -> Threads_util.Tid.t list

(** [live m] is true while some thread is runnable or blocked. *)
val live : t -> bool

(** [deadlocked m] — no runnable thread but some blocked thread. *)
val deadlocked : t -> bool

(** [step m t] executes thread [t]'s pending instruction and runs it up to
    its next effect; for a thread in {!Ops.spin} it executes one
    instruction of the wait loop and resumes the thread only after the
    winning TAS.  Returns the cycle cost of the executed instruction.
    Raises [Failure] if [t] is not runnable. *)
val step : t -> Threads_util.Tid.t -> int

(** {1 Observation} *)

val trace : t -> Spec_trace.event list
(** in emission order *)

(** The machine's underlying event sink ({!Spec_trace.Sink}); [trace] is
    its current contents. *)
val sink : t -> Spec_trace.Sink.t

val counters : t -> (string * int) list
val counter : t -> string -> int

(** [instructions m t] — instructions executed by thread [t]. *)
val instructions : t -> Threads_util.Tid.t -> int

val total_instructions : t -> int
val total_cycles : t -> int

(** [failures m] — threads that escaped with exceptions. *)
val failures : t -> (Threads_util.Tid.t * exn) list

val all_tids : t -> Threads_util.Tid.t list
val cost_model : t -> Cost.t

(** The machine's instrument registry (counters / histograms / gauges /
    spans recorded by {!Probe} calls and by the machine itself:
    ["machine.blocks"], ["machine.wakes"],
    ["machine.wakeup_waiting_arms"/"_saves"], and per-thread ["blocked"]
    spans).  Snapshot it after a run for {!Obs.Report} or
    {!Obs.Chrome_trace}. *)
val obs : t -> Obs.Instrument.t

(** {1 Access stream (driver side)} *)

(** Enable/disable access recording.  Off by default; usually switched on
    right after {!create}, before any thread runs. *)
val set_recording : t -> bool -> unit

val recording : t -> bool

(** Recorded accesses in execution order (empty unless recording). *)
val accesses : t -> access list

val access_count : t -> int

(** {1 Step footprints (DPOR dependence, driver side)}

    With {!set_footprints} on, each {!step} records the set of
    [(address, is_write)] pairs it touched: real memory addresses for
    loads/stores/interlocked operations, pseudo-addresses for scheduler
    interactions (every step reads its own scheduler slot; waking,
    spawning, finishing or joining a thread writes the target's slot),
    and {!Probe.touch} declarations for host-level package state.  Two
    steps commute whenever their footprints do not conflict — the
    dependence relation {!Explore.explore_dpor} keys its sleep sets on.
    Off by default and charge-free when off. *)

val set_footprints : t -> bool -> unit
val footprints : t -> bool

(** Footprint of the most recently executed step (newest access first). *)
val last_footprint : t -> (int * bool) list

(** [footprints_conflict f1 f2] — do the footprints share an address with
    at least one write? *)
val footprints_conflict : (int * bool) list -> (int * bool) list -> bool

(** {1 Profiling stream (driver side)} *)

(** Enable/disable causal-profile recording.  Off by default; switch on
    right after {!create}, before any thread runs. *)
val set_profiling : t -> bool -> unit

val profiling : t -> bool

(** Recorded profile events in [pr_seq] order (empty unless profiling). *)
val prof_events : t -> prof_event list

val prof_event_count : t -> int

(** {1 Timed events (driver side)}

    Timers ({!Probe.set_timeout}) and wakeups held back by the fault filter
    ({!Delay}) both wait on the machine clock.  Drivers call
    {!fire_due_events} between steps; when nothing is runnable they call
    {!advance_to_next_event} to jump the clock to the next one
    (discrete-event idle time).  With no timer armed and no wakeup held
    both are no-ops, so event-free runs are unchanged. *)

(** Deliver every held wakeup whose due-cycle has passed, then fire every
    timer whose deadline has: each victim is woken (honouring the
    wakeup-waiting switch) and a timer's victim gets its fired flag.  A
    held wakeup whose target has moved on (its wake episode ended via a
    timer or another wake) is stale and is discarded — recorded, never
    delivered, so it cannot spuriously wake an unrelated block. *)
val fire_due_events : t -> unit

(** If a timer is armed or a wakeup held: advance the clock to the
    earliest of them (never backwards) and return [true].  The event is
    delivered by the next {!fire_due_events}. *)
val advance_to_next_event : t -> bool

(** [timed_event_pending m] — is a timer armed or a wakeup held?  Neither
    changes the machine. *)
val timed_event_pending : t -> bool

(** {1 Livelock queries (driver side)} *)

(** [stuck_spin m t] is the word thread [t] is stuck spinning on, or [-1].
    A thread is stuck when it is in the {!Ops.spin} wait loop and the
    word holds a non-zero value: its failed TAS writes 1 over 1, so until
    another thread clears the word its steps change nothing another
    thread can see (they only bump host counters and charge cycles).
    Read-only, allocation-free. *)
val stuck_spin : t -> Threads_util.Tid.t -> int

(** {1 Fault injection (driver side)} *)

(** Install (or remove) the wakeup-interrupt filter. *)
val set_wake_filter : t -> (Threads_util.Tid.t -> wake_verdict) option -> unit

(** [kill m t ~reason] crash-stops thread [t]: it fails with
    {!Crash_stopped} {e without unwinding} — finalizers do not run, held
    locks stay held — exactly a processor dying mid-critical-section.
    Joiners are woken; subsequent wakeups of [t] are discarded (and
    recorded) rather than being simulation errors. *)
val kill : t -> Threads_util.Tid.t -> reason:string -> unit

val was_killed : t -> Threads_util.Tid.t -> bool

(** Gate for {!Probe.chaos_active}; set by fault-injection drivers. *)
val set_chaos_active : t -> bool -> unit

(** Driver-side fault record (the injector-thread equivalent is
    {!Probe.inject_fault}): appends to {!faults} and bumps the
    [chaos.faults] counter. *)
val record_fault : t -> string -> unit

(** Package-registered injection entry points, in registration order. *)
val chaos_hooks : t -> (string * (int -> unit)) list

(** The fault log, in injection order. *)
val faults : t -> fault list

val fault_count : t -> int

(** Current holder of lock/object [id], per
    {!Probe.lock_acquired}/{!Probe.lock_released} bookkeeping. *)
val owner_of : t -> int -> Threads_util.Tid.t option

(** Classification of word [a], if registered ([None] = ordinary data). *)
val word_kind : t -> int -> word_kind option

(** Registered name of word [a], or ["word@a"]. *)
val word_name : t -> int -> string

(** Name of lock [id]: from {!Probe.register_lock}, else the word registry,
    else ["lock#id"]. *)
val lock_name : t -> int -> string

(** All registered words [(addr, kind, name)], sorted by address. *)
val registered_words : t -> (int * word_kind * string) list
