(* The differential oracle for the livelock check in [Interleave.drive].

   A run the check stopped with a witness is continued to its cap with
   plain [Machine.step], outside the driver loop: due timed events are
   fired first at every iteration, as the loop does; under preemption the
   first runnable interrupt thread is stepped, otherwise the runnable
   threads go round-robin.  If the proof was sound, nothing anyone could
   observe moves: the runnable set is the same at every step, no thread's
   status changes, no trace event or fault is added, and every spinner is
   still stuck on the same held word at the cap. *)

module M = Firefly.Machine
module I = Firefly.Interleave

let status_name m tid =
  match M.status m tid with
  | M.Runnable -> "runnable"
  | M.Blocked -> "blocked"
  | M.Finished -> "finished"
  | M.Failed e -> "failed " ^ Printexc.to_string e

(* [extend ~what ~preempt ~cap ~steps m w] continues machine [m], stopped
   after [steps] driver steps with witness [w], to [cap] steps in all. *)
let extend ~what ~preempt ~cap ~steps m (w : I.witness) =
  let statuses () = List.map (status_name m) (M.all_tids m) in
  let before = statuses () in
  let rs0 = M.runnable m in
  let events = List.length (M.trace m) and faults = M.fault_count m in
  let round_robin = Firefly.Sched.round_robin () in
  for step = steps to cap - 1 do
    M.fire_due_events m;
    let rs = M.runnable m in
    if rs <> rs0 then
      Alcotest.failf "%s: the runnable set changed at step %d" what step;
    let tid =
      if preempt then List.find (M.is_interrupt m) rs else round_robin m rs
    in
    ignore (M.step m tid)
  done;
  Alcotest.(check (list string)) (what ^ ": statuses") before (statuses ());
  Alcotest.(check int)
    (what ^ ": trace events") events
    (List.length (M.trace m));
  Alcotest.(check int) (what ^ ": faults") faults (M.fault_count m);
  List.iter
    (fun (s : I.spinner) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: t%d still stuck on its word" what s.I.spinner)
        s.I.word
        (M.stuck_spin m s.I.spinner))
    w
