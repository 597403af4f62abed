(* Host-side measurement helpers: clocks, order statistics, the timed
   round loop, the runner telemetry probe and peak resident memory. *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [timed f] — [f ()] with its host wall-clock seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let quantile q samples =
  match samples with
  | [] -> invalid_arg "Measure.quantile: no samples"
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    Threads_util.Stats.percentile (100. *. q) a

let median = quantile 0.5

type round = { wall : float; cpu : float }

(* [rounds ~seconds f] repeats the fixed work [f] while another round
   of the length of the last one still fits in [seconds] of host time,
   always at least once, and returns every round's result with its wall
   and CPU seconds, oldest first. *)
let rounds ~seconds f =
  let start = now () in
  let rec go acc =
    let c0 = cpu_now () and t0 = now () in
    let r = f () in
    let round = { wall = now () -. t0; cpu = cpu_now () -. c0 } in
    let acc = (r, round) :: acc in
    if now () -. start +. round.wall > seconds then List.rev acc else go acc
  in
  go []

let median_wall rs = median (List.map (fun (_, r) -> r.wall) rs)
let median_cpu rs = median (List.map (fun (_, r) -> r.cpu) rs)

(* Runner probe: a [Telemetry.sink] that timestamps every cell.  Each
   worker writes only its own slots (the runner's sink contract), and
   the arrays are read after the matrix has joined its workers. *)
type probe = {
  started : float array;
  cells : float list array;  (* per worker, cell durations in seconds *)
  steals : int Atomic.t;
}

let probe ~jobs =
  {
    started = Array.make jobs 0.;
    cells = Array.make jobs [];
    steals = Atomic.make 0;
  }

let sink p =
  {
    Threads_runner.Telemetry.null with
    cell_start = (fun ~worker ~cell:_ -> p.started.(worker) <- now ());
    cell_done =
      (fun ~worker ~cell:_ ->
        p.cells.(worker) <- (now () -. p.started.(worker)) :: p.cells.(worker));
    steal = (fun ~worker:_ ~victim:_ ~cells:_ -> Atomic.incr p.steals);
  }

let probe_cells p = List.concat (Array.to_list p.cells)
let probe_busy p = List.fold_left ( +. ) 0. (probe_cells p)

(* Peak resident set size of this process, in MiB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* [peak_after_first f] — [f] and a cell that holds the peak resident
   set size read right after [f]'s first call.  Repeated rounds would
   otherwise make the peak depend on how many rounds the host fits in. *)
let peak_after_first f =
  let peak = ref Float.nan in
  ( (fun () ->
      let r = f () in
      if Float.is_nan !peak then peak := peak_rss_mb ();
      r),
    peak )
