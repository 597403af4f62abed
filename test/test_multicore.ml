(* Tests of the real-parallelism backend (OCaml 5 domains).  Thread counts
   stay small; each test is a genuine cross-domain stress. *)

module S = Threads_multicore.Multicore.Sync

let test_mutex_stress () =
  let m = S.mutex () in
  let counter = ref 0 in
  let n = 4 and iters = 20_000 in
  let worker () =
    for _ = 1 to iters do
      S.with_lock m (fun () -> incr counter)
    done
  in
  let ts = List.init n (fun _ -> S.fork worker) in
  List.iter S.join ts;
  Alcotest.(check int) "no lost updates" (n * iters) !counter

let test_semaphore_mutual_exclusion () =
  let sem = S.semaphore () in
  let inside = ref 0 and bad = ref false in
  let worker () =
    for _ = 1 to 5_000 do
      S.p sem;
      incr inside;
      if !inside > 1 then bad := true;
      decr inside;
      S.v sem
    done
  in
  let ts = List.init 3 (fun _ -> S.fork worker) in
  List.iter S.join ts;
  Alcotest.(check bool) "binary semaphore excludes" false !bad

let test_producer_consumer () =
  let m = S.mutex () in
  let nonempty = S.condition () in
  let nonfull = S.condition () in
  let buf = Queue.create () in
  let cap = 4 and total = 30_000 in
  let eaten = ref 0 in
  let producer () =
    for i = 1 to total do
      S.with_lock m (fun () ->
          while Queue.length buf >= cap do
            S.wait m nonfull
          done;
          Queue.add i buf;
          S.signal nonempty)
    done
  in
  let consumer () =
    for _ = 1 to total do
      S.with_lock m (fun () ->
          while Queue.is_empty buf do
            S.wait m nonempty
          done;
          ignore (Queue.take buf);
          incr eaten;
          S.signal nonfull)
    done
  in
  let p = S.fork producer and c = S.fork consumer in
  S.join p;
  S.join c;
  Alcotest.(check int) "all consumed" total !eaten

let test_broadcast () =
  let m = S.mutex () in
  let go = S.condition () in
  let flag = ref false in
  let woken = Atomic.make 0 in
  let waiter () =
    S.with_lock m (fun () ->
        while not !flag do
          S.wait m go
        done);
    Atomic.incr woken
  in
  let ws = List.init 4 (fun _ -> S.fork waiter) in
  S.with_lock m (fun () -> flag := true);
  S.broadcast go;
  List.iter S.join ws;
  Alcotest.(check int) "all woken" 4 (Atomic.get woken)

let test_alert_wait () =
  let m = S.mutex () in
  let c = S.condition () in
  let alerted = Atomic.make false in
  let w =
    S.fork (fun () ->
        try S.with_lock m (fun () -> S.alert_wait m c)
        with Threads_multicore.Multicore.Alerted -> Atomic.set alerted true)
  in
  S.alert w;
  S.join w;
  Alcotest.(check bool) "alert unblocks AlertWait" true (Atomic.get alerted)

let test_alert_p () =
  let sem = S.semaphore () in
  S.p sem;
  let alerted = Atomic.make false in
  let w =
    S.fork (fun () ->
        try S.alert_p sem
        with Threads_multicore.Multicore.Alerted -> Atomic.set alerted true)
  in
  S.alert w;
  S.join w;
  Alcotest.(check bool) "alert unblocks AlertP" true (Atomic.get alerted)

let test_test_alert () =
  let probe = Atomic.make (false, false, false) in
  let w =
    S.fork (fun () ->
        (* wait until the alert has certainly been posted *)
        let rec spin () = if not (S.test_alert ()) then spin () in
        spin ();
        (* consumed: a second poll is false *)
        Atomic.set probe (true, S.test_alert (), false))
  in
  S.alert w;
  S.join w;
  let seen, second, _ = Atomic.get probe in
  Alcotest.(check bool) "alert seen" true seen;
  Alcotest.(check bool) "alert consumed" false second

let test_signal_wakes_enough () =
  (* one signal per item: no waiter may be left behind *)
  let m = S.mutex () in
  let c = S.condition () in
  let tickets = ref 0 in
  let waiter () =
    S.with_lock m (fun () ->
        while !tickets = 0 do
          S.wait m c
        done;
        decr tickets)
  in
  let ws = List.init 3 (fun _ -> S.fork waiter) in
  for _ = 1 to 3 do
    S.with_lock m (fun () ->
        incr tickets;
        S.signal c)
  done;
  (* signals may have raced ahead of the waits; broadcast as a sweep *)
  let rec drain () =
    let left = S.with_lock m (fun () -> !tickets) in
    if left > 0 then begin
      S.broadcast c;
      drain ()
    end
  in
  drain ();
  List.iter S.join ws;
  Alcotest.(check int) "all tickets taken" 0 !tickets

(* Alert against Raise.  The waiter loops on an alertable wait that only
   an Alert ends (AlertP on a held semaphore, or AlertWait on a condition
   nobody signals), each followed by TestAlert, while the main thread
   keeps alerting it, so Alerts contend for the nub with each Raise.  An
   Alert whose event lands after the Raise's must survive for the next
   TestAlert; the traced run is checked against the spec as a whole. *)
let alert_vs_raise_run ~rounds ~wait =
  let module MC = Threads_multicore.Multicore in
  let (), events =
    MC.traced_run (fun () ->
        let sem = S.semaphore () in
        let m = S.mutex () and c = S.condition () in
        S.p sem;
        let finished = Atomic.make false in
        let w =
          S.fork (fun () ->
              for _ = 1 to rounds do
                (try
                   match wait with
                   | `P -> S.alert_p sem
                   | `Wait -> S.with_lock m (fun () -> S.alert_wait m c)
                 with MC.Alerted -> ());
                ignore (S.test_alert ())
              done;
              Atomic.set finished true)
        in
        while not (Atomic.get finished) do
          S.alert w;
          for _ = 1 to 50 do
            Domain.cpu_relax ()
          done
        done;
        S.join w)
  in
  Threads_model.Conformance.ok
    (Threads_model.Conformance.check Spec_core.Threads_interface.final
       events)

let test_alert_vs_raise () =
  List.iter
    (fun (name, wait) ->
      let failed = ref 0 in
      for _ = 1 to 10 do
        if not (alert_vs_raise_run ~rounds:200 ~wait) then incr failed
      done;
      Alcotest.(check int) (name ^ ": runs violating the spec") 0 !failed)
    [ ("AlertP", `P); ("AlertWait", `Wait) ]

let suite =
  ( "multicore",
    [
      Alcotest.test_case "mutex stress" `Slow test_mutex_stress;
      Alcotest.test_case "semaphore exclusion" `Slow
        test_semaphore_mutual_exclusion;
      Alcotest.test_case "producer/consumer" `Slow test_producer_consumer;
      Alcotest.test_case "broadcast" `Quick test_broadcast;
      Alcotest.test_case "alert_wait" `Quick test_alert_wait;
      Alcotest.test_case "alert_p" `Quick test_alert_p;
      Alcotest.test_case "test_alert" `Quick test_test_alert;
      Alcotest.test_case "signal wakes enough" `Quick test_signal_wakes_enough;
      Alcotest.test_case "alert vs raise" `Quick test_alert_vs_raise;
    ] )
