module Ops = Firefly.Machine.Ops
module Probe = Firefly.Machine.Probe

type t = { bit : int }

(* Bounded exponential backoff between failed TASes, handed to the
   machine's wait loop ([Ops.spin]).  The loop applies it only while a
   chaos run has injection enabled (a host-side test of the chaos gate),
   so disabled runs execute the bare loop instruction-for-instruction and
   stay schedule-identical to pre-backoff behavior.  Under an injected
   contention burst this keeps the bus from being saturated by retry
   TASes. *)
let backoff_start = 2
let backoff_cap = 64

(* [?obs] attributes contended spinning to the synchronization object
   whose Nub subroutine took the spin-lock: per-object spin-iteration and
   spin-cycle counters, plus a "spin <obj>" span when at least one TAS
   failed.  The probe calls are not machine effects, so the instruction
   sequence (and hence the schedule) is exactly that of the bare loop. *)
let acquire ?obs l =
  let t0 = Probe.now () in
  let spun = Ops.tas l.bit in
  if spun then
    Ops.spin l.bit
      ~iters:(Option.map (fun n -> n ^ ".spin_iters") obs)
      ~backoff:backoff_start ~cap:backoff_cap;
  Probe.lock_acquired l.bit;
  if spun then
    match obs with
    | Some n ->
      let t1 = Probe.now () in
      Probe.counter (n ^ ".spin_cycles") (t1 - t0);
      Probe.span_add ~cat:"spin" ("spin " ^ n) ~t0 ~t1
    | None -> ()

(* The held-lock record is dropped inside the clear's own instruction,
   as [Mutex.release] does, so no crash-stop can fall between the two and
   leave the word set with no holder on record. *)
let release l =
  ignore
    (Ops.mem_emit (Firefly.Machine.M_clear l.bit) (fun _ ->
         Probe.lock_released l.bit;
         None))

let addr l = l.bit

let create ?(name = "spin-lock") () =
  let bit = Ops.alloc 1 in
  Probe.register_word bit Firefly.Machine.W_lock name;
  let l = { bit } in
  (* Chaos hook: a TAS contention burst is [n] acquire/release pairs from
     an injector thread — real contention through the real instructions,
     so lockset/happens-before analyses still see a well-formed history. *)
  Probe.register_chaos (name ^ ".contend") (fun n ->
      for _ = 1 to max 1 n do
        acquire l;
        release l
      done);
  l
