(** Scheduling strategies for the interleaving driver.

    A strategy picks the next thread to step from the runnable set.  All
    strategies are deterministic functions of their construction arguments,
    so every run is reproducible. *)

(** A strategy maps the machine and its non-empty runnable set (ascending
    tids, as {!Machine.runnable} returns it) to the thread to step next. *)
type t = Machine.t -> Threads_util.Tid.t list -> Threads_util.Tid.t

(** [random seed] — uniform choice among runnable threads. *)
val random : int -> t

(** [round_robin ()] — cycles through runnable threads in tid order. *)
val round_robin : unit -> t

(** [replay prefix fallback] follows the recorded tid choices in [prefix],
    then defers to [fallback]: a test forces a schedule prefix with it. *)
val replay : Threads_util.Tid.t list -> t -> t
