(* Workload paper-suite: E1-E10 through [Registry.init] and each
   experiment's [run], in [Exp.all] order, standard output captured and
   compared with a kept reference once host-timed cells are masked.  The
   experiments pin their own seeds, so the seed does not change the
   inputs. *)

open Measure
open Report
module Exp = Threads_harness.Exp
module E10 = Threads_harness.E10

let reference_dir = Filename.concat "perfbench" "reference"

(* Captures go to the build directory, which run.py has just created and
   version control ignores. *)
let capture_dir = "_build"

let reference_path (e : Exp.t) = Filename.concat reference_dir (e.Exp.id ^ ".txt")
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Set-up: the registry and every reference output. *)
let setup () =
  Threads_harness.Registry.init ();
  List.map
    (fun e ->
      let path = reference_path e in
      if not (Sys.file_exists path) then begin
        prerr_endline ("perfbench: missing reference output " ^ path);
        exit 2
      end;
      (e, read_file path))
    (Exp.all ())

(* One pass: each experiment's id, whether its output matched, and its
   seconds. *)
let pass refs =
  List.map
    (fun ((e : Exp.t), expected) ->
      let out, secs = timed (fun () -> Capture.output ~dir:capture_dir e.Exp.run) in
      let ok =
        match out with
        | Ok text when Capture.mask text = expected -> true
        | Ok _ ->
          failure "%s: output differs from %s" e.Exp.id (reference_path e);
          false
        | Error exn ->
          failure "%s raised %s" e.Exp.id (Printexc.to_string exn);
          false
      in
      (e.Exp.id, ok, secs))
    refs

let update_references () =
  Threads_harness.Registry.init ();
  List.iter
    (fun (e : Exp.t) ->
      match Capture.output ~dir:capture_dir e.Exp.run with
      | Ok text ->
        Out_channel.with_open_bin (reference_path e) (fun oc ->
            output_string oc (Capture.mask text));
        print_endline ("wrote " ^ reference_path e)
      | Error exn -> error "%s raised %s" e.Exp.id (Printexc.to_string exn))
    (Exp.all ())

(* Self-test of the output check: a changed deterministic cell must be
   flagged, a changed host-timed cell must not. *)
let selftest () =
  let table ms count =
    Printf.sprintf "+-----+---+\n| ms | n |\n+-----+---+\n| %s | %s |\n+-----+---+\n" ms
      count
  in
  let same a b = Capture.mask a = Capture.mask b in
  if same (table "1.5" "7") (table "12.25" "8") then
    error "self-test: a changed deterministic cell was not flagged"
  else if not (same (table "1.5" "7") (table "12.25" "7")) then
    error "self-test: a changed host-timed cell was flagged"
  else print_endline "self-test: the output check flags deterministic changes only"

(* E10's interrupt sweep, both scheduling modes over its seeds, timed
   call by call: the simulator's interleaving driver with every
   host-side stream off. *)
let interleave_sweep () =
  let steps = ref 0 and secs = ref 0. in
  List.iter
    (fun prefer ->
      for seed = 0 to E10.seeds - 1 do
        let r, dt = timed (fun () -> E10.pv_run ~prefer ~seed ()) in
        (match r.Firefly.Interleave.verdict with
        | Firefly.Interleave.Deadlock _ ->
          error "E10 pv_run lost a V (seed %d, prefer=%b)" seed prefer
        | _ -> ());
        steps := !steps + r.Firefly.Interleave.steps;
        secs := !secs +. dt
      done)
    [ false; true ];
  [
    ("firefly.interleave_steps", Int !steps);
    ("firefly.interleave_ns_per_step", Float (1e9 *. per !secs !steps));
  ]

let run refs ~seconds ~trace =
  selftest ();
  (* A traced run measures untraced and traced passes in equal shares. *)
  let phase = if trace then seconds /. 2. else seconds in
  let passes () =
    let f, peak = peak_after_first (fun () -> pass refs) in
    let rs = rounds ~seconds:phase f in
    (rs, !peak)
  in
  let rs, peak = passes () in
  let wall = median_wall rs in
  let experiments = List.length refs in
  let failed =
    List.fold_left
      (fun a (r, _) -> a + List.length (List.filter (fun (_, ok, _) -> not ok) r))
      0 rs
  in
  let attempted = experiments * List.length rs in
  if not trace then
    {
      attempted;
      failed;
      metrics =
        [
          ("wall_s", Float wall);
          ("units_per_s", Float (float_of_int experiments /. wall));
          ("cpu_s", Float (median_cpu rs));
          ("peak_rss_mb", Float peak);
        ];
    }
  else begin
    let traced, _ = passes () in
    let seconds_of id =
      List.concat_map
        (fun (r, _) -> List.filter_map (fun (i, _, s) -> if i = id then Some s else None) r)
        traced
    in
    {
      attempted;
      failed;
      metrics =
        List.map
          (fun ((e : Exp.t), _) ->
            ( Printf.sprintf "harness.%s_s" (String.lowercase_ascii e.Exp.id),
              Float (median (seconds_of e.Exp.id)) ))
          refs
        @ interleave_sweep ()
        @ [ ("trace_overhead_frac", Float ((median_wall traced /. wall) -. 1.)) ];
    }
  end
