module Tid = Threads_util.Tid

type verdict = Completed | Deadlock of Tid.t list | Step_limit

type report = { verdict : verdict; steps : int; machine : Machine.t }

let terminal m =
  if Machine.live m then Deadlock (Machine.blocked m) else Completed

let drive ?trigger ~max_steps pick m =
  let rec loop steps =
    if steps >= max_steps then Step_limit, steps
    else begin
      let armed = match trigger with None -> false | Some f -> f steps in
      Machine.fire_due_events m;
      match Machine.runnable m with
      | [] ->
        (* Quiescent: jump the clock to the next timer or held wakeup, or
           let a step pass while the trigger hook still has work ahead. *)
        if Machine.advance_to_next_event m || armed then loop (steps + 1)
        else terminal m, steps
      | rs ->
        let tid = pick m rs in
        if tid >= 0 then ignore (Machine.step m tid);
        loop (steps + 1)
    end
  in
  let verdict, steps = loop 0 in
  { verdict; steps; machine = m }

let run ?(max_steps = 1_000_000) ?strategy ?(seed = 0) ?cost build =
  let strategy =
    match strategy with Some s -> s | None -> Sched.random seed
  in
  let m = Machine.create ~seed ?cost () in
  build m;
  drive ~max_steps strategy m

let run_main ?max_steps ?strategy ?seed ?cost body =
  run ?max_steps ?strategy ?seed ?cost (fun m ->
      ignore (Machine.spawn_root m body))
