module Tid = Threads_util.Tid

type verdict = Completed | Deadlock of Tid.t list | Step_limit

type holder_state =
  | Crash_stopped
  | Failed
  | Finished
  | Blocked
  | Preempted
  | Spinning

type spinner = {
  spinner : Tid.t;
  word : int;
  word_name : string;
  holder : (Tid.t * holder_state) option;
}

type witness = spinner list

type report = {
  verdict : verdict;
  steps : int;
  machine : Machine.t;
  livelock : witness option;
}

let terminal m =
  if Machine.live m then Deadlock (Machine.blocked m) else Completed

(* The first interrupt-context thread in [runnable], or -1. *)
let rec first_interrupt m = function
  | [] -> -1
  | tid :: rest ->
    if Machine.is_interrupt m tid then tid else first_interrupt m rest

(* Can the loop pick [tid]?  While an interrupt preempts ([intr >= 0]),
   only interrupt threads run. *)
let eligible m ~intr tid = intr < 0 || Machine.is_interrupt m tid

(* Every eligible runnable thread is stuck spinning; stops at the first
   one that is not. *)
let rec all_stuck m ~intr = function
  | [] -> true
  | tid :: rest ->
    ((not (eligible m ~intr tid)) || Machine.stuck_spin m tid >= 0)
    && all_stuck m ~intr rest

let holder_state m ~intr tid =
  match Machine.status m tid with
  | Machine.Failed Machine.Crash_stopped -> Crash_stopped
  | Machine.Failed _ -> Failed
  | Machine.Finished -> Finished
  | Machine.Blocked -> Blocked
  | Machine.Runnable -> if eligible m ~intr tid then Spinning else Preempted

let witness m ~intr rs =
  List.filter_map
    (fun tid ->
      if not (eligible m ~intr tid) then None
      else
        let word = Machine.stuck_spin m tid in
        Some
          {
            spinner = tid;
            word;
            word_name = Machine.word_name m word;
            holder =
              Option.map
                (fun h -> (h, holder_state m ~intr h))
                (Machine.owner_of m word);
          })
    rs

let state_name = function
  | Crash_stopped -> "crash-stopped"
  | Failed -> "failed"
  | Finished -> "finished"
  | Blocked -> "blocked"
  | Preempted -> "preempted"
  | Spinning -> "spinning"

let describe_witness w =
  let words = List.sort_uniq compare (List.map (fun s -> s.word) w) in
  String.concat "; "
    (List.map
       (fun word ->
         let on = List.filter (fun s -> s.word = word) w in
         let s = List.hd on in
         Printf.sprintf "%s %s on %s %s"
           (String.concat ", "
              (List.map (fun s -> Printf.sprintf "t%d" s.spinner) on))
           (match on with [ _ ] -> "spins" | _ -> "spin")
           s.word_name
           (match s.holder with
           | Some (h, st) -> Printf.sprintf "held by t%d (%s)" h (state_name st)
           | None -> "(holder not on record)"))
       words)

let drive ?trigger ?(preempt = false) ~max_steps pick m =
  let rec loop steps =
    if steps >= max_steps then (Step_limit, steps, None)
    else begin
      let armed = match trigger with None -> false | Some f -> f steps in
      Machine.fire_due_events m;
      match Machine.runnable m with
      | [] ->
        (* Quiescent: jump the clock to the next timer or held wakeup, or
           let a step pass while the trigger hook still has work ahead. *)
        if Machine.advance_to_next_event m || armed then loop (steps + 1)
        else (terminal m, steps, None)
      | rs ->
        let intr = if preempt then first_interrupt m rs else -1 in
        if
          (not armed)
          && (not (Machine.timed_event_pending m))
          && all_stuck m ~intr rs
        then (Step_limit, steps, Some (witness m ~intr rs))
        else begin
          let tid = if intr >= 0 then intr else pick m rs in
          if tid >= 0 then ignore (Machine.step m tid);
          loop (steps + 1)
        end
    end
  in
  let verdict, steps, livelock = loop 0 in
  { verdict; steps; machine = m; livelock }

let run ?(max_steps = 1_000_000) ?strategy ?preempt ?(seed = 0) ?cost build =
  let strategy =
    match strategy with Some s -> s | None -> Sched.random seed
  in
  let m = Machine.create ~seed ?cost () in
  build m;
  drive ?preempt ~max_steps strategy m

let run_main ?max_steps ?strategy ?seed ?cost body =
  run ?max_steps ?strategy ?seed ?cost (fun m ->
      ignore (Machine.spawn_root m body))
