(* Domain-parallel run-matrix executor: one shared cursor.

   Workers — the caller's domain as worker 0 plus [jobs - 1] spawned
   domains — claim cell indices from one Atomic counter with
   fetch_and_add and store each cell's outcome in the slot of its index.
   A cell costs tens to hundreds of microseconds, so one shared increment
   per cell is noise, and keying results by index makes the output
   scheduling-independent by construction. *)

let recommended_jobs () = Domain.recommended_domain_count ()
let resolve_jobs j = if j <= 0 then recommended_jobs () else j

(* Host-side observation points.  The runner stays clock-free and
   dependency-free: callbacks fire at the named events and the sink (see
   lib/telemetry) takes its own timestamps.  Callbacks run on the worker
   domain that hit the event, concurrently with other workers' callbacks
   — a sink must confine per-worker mutable state to the worker index or
   use atomics. *)
module Telemetry = struct
  type sink = {
    cell_start : worker:int -> cell:int -> unit;
    cell_done : worker:int -> cell:int -> unit;
    fan_out : workers:int -> cells:int -> unit;
    steal : worker:int -> victim:int -> cells:int -> unit;
  }

  let null =
    {
      cell_start = (fun ~worker:_ ~cell:_ -> ());
      cell_done = (fun ~worker:_ ~cell:_ -> ());
      fan_out = (fun ~workers:_ ~cells:_ -> ());
      steal = (fun ~worker:_ ~victim:_ ~cells:_ -> ());
    }
end

let run_cell f idx =
  match f idx with
  | v -> Ok v
  | exception exn -> Error (exn, Printexc.get_raw_backtrace ())

(* Cells [lo, lo + n) on [jobs] workers; slot [i] holds cell [lo + i]'s
   outcome.  Each slot is written by one worker and read after the joins,
   which order the write before the read. *)
let run_slice ?telemetry ~jobs ~lo ~n f =
  let ev g = match telemetry with Some s -> g s | None -> () in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let workers = min jobs n in
  ev (fun s -> s.Telemetry.fan_out ~workers ~cells:n);
  let rec work me =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then begin
      let cell = lo + i in
      ev (fun s -> s.Telemetry.cell_start ~worker:me ~cell);
      results.(i) <- Some (run_cell f cell);
      ev (fun s -> s.Telemetry.cell_done ~worker:me ~cell);
      work me
    end
  in
  let domains =
    Array.init (workers - 1) (fun w -> Domain.spawn (fun () -> work (w + 1)))
  in
  work 0;
  Array.iter Domain.join domains;
  results

let unwrap = function
  | Some (Ok v) -> v
  | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
  | None -> failwith "Runner.Matrix: unexecuted cell"

(* [f] with worker 0's observation callbacks around each call: the
   sequential path, same evaluation order and values as bare [f]. *)
let observed telemetry f =
  match telemetry with
  | None -> f
  | Some s ->
    fun i ->
      s.Telemetry.cell_start ~worker:0 ~cell:i;
      let v = f i in
      s.Telemetry.cell_done ~worker:0 ~cell:i;
      v

module Matrix = struct
  (* Failures surface as the lowest-indexed failing cell: [Array.map]
     unwraps in index order, exactly as the sequential path meets them. *)
  let map ?telemetry ?(jobs = 1) ~n f =
    if jobs <= 1 || n <= 1 then Array.init n (observed telemetry f)
    else Array.map unwrap (run_slice ?telemetry ~jobs ~lo:0 ~n f)

  (* At most one slice of results is alive at a time, so memory stays
     flat whatever the matrix size (million-run chaos sweeps). *)
  let window = 256

  let iter_ordered ?telemetry ?(jobs = 1) ~n ~f ~consume () =
    if jobs <= 1 || n <= 1 then begin
      let f = observed telemetry f in
      for i = 0 to n - 1 do
        consume i (f i)
      done
    end
    else
      let rec from lo =
        if lo < n then begin
          let slice = run_slice ?telemetry ~jobs ~lo ~n:(min window (n - lo)) f in
          Array.iteri (fun i r -> consume (lo + i) (unwrap r)) slice;
          from (lo + window)
        end
      in
      from 0
end
