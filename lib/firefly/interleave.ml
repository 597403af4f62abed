module Tid = Threads_util.Tid

type verdict = Completed | Deadlock of Tid.t list | Step_limit

type report = { verdict : verdict; steps : int; machine : Machine.t }

let run ?(max_steps = 1_000_000) ?strategy ?(seed = 0) ?cost build =
  let strategy =
    match strategy with Some s -> s | None -> Sched.random seed
  in
  let m = Machine.create ~seed ?cost () in
  build m;
  let steps = ref 0 in
  let rec loop () =
    if !steps >= max_steps then Step_limit
    else begin
      (* No-op unless a thread armed a timed wait (then expiry is driven
         by the machine clock; at quiescence the clock jumps to the next
         deadline — discrete-event idle time). *)
      Machine.fire_due_timers m;
      match Machine.runnable m with
      | [] ->
        if Machine.advance_to_next_timer m then loop ()
        else if Machine.live m then Deadlock (Machine.blocked m)
        else Completed
      | rs ->
        let tid = Sched.choose strategy m rs in
        ignore (Machine.step m tid);
        incr steps;
        loop ()
    end
  in
  let verdict = loop () in
  { verdict; steps = !steps; machine = m }

let run_main ?max_steps ?strategy ?seed ?cost body =
  run ?max_steps ?strategy ?seed ?cost (fun m ->
      ignore (Machine.spawn_root m body))
