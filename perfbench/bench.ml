(* The repository benchmark: one workload per invocation, a closed loop
   driven from this process.  See perfbench/README.md for the workloads,
   the metrics and the checks.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --workload W --seed N --setup-only
     bench.exe --update-reference

   Metric names and units come from BENCHMARK.json.  The last line of
   standard output is one JSON object; perfbench/run.py adds the set-up
   time it measures across separate launches. *)

open Report
module Json = Obs.Json

let workloads = [ "campaign-chaos"; "explore-dpor"; "paper-suite" ]

(* Set-up: everything a workload does before its first timed round.
   Returns the measured run. *)
let prepare workload ~seed =
  match workload with
  | "campaign-chaos" -> Campaign_wl.run ~seed
  | "explore-dpor" -> Explore_wl.run
  | "paper-suite" -> Suite_wl.run (Suite_wl.setup ())
  | w ->
    Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" w
      (String.concat ", " workloads);
    exit 2

(* [declared key] — the (name, unit) list of one metric group. *)
let declared key =
  let spec = Json.of_string (Suite_wl.read_file "BENCHMARK.json") in
  match Json.member spec key with
  | Json.Arr metrics ->
    List.map
      (fun m ->
        match (Json.member m "name", Json.member m "unit") with
        | Json.String n, Json.String u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: a " ^ key ^ " metric lacks a name or unit"))
      metrics
  | _ -> failwith ("BENCHMARK.json: " ^ key ^ " is not a list")

let number name = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ ->
    error "metric %s is not a finite number" name;
    "0"

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 15. in
  let trace = ref 0 and setup_only = ref false and update = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W the workload to run");
      ("--seed", Arg.Set_int seed, "N the input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--setup-only", Arg.Set setup_only, " set up, then exit");
      ("--update-reference", Arg.Set update, " rewrite perfbench/reference from this build");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !update then begin
    Suite_wl.update_references ();
    exit (if !errors = [] then 0 else 1)
  end;
  let run = prepare !workload ~seed:!seed in
  if !setup_only then exit 0;
  let traced = !trace = 1 in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s\n%!"
    !workload !seed !seconds traced nproc Sys.ocaml_version;
  let r = run ~seconds:!seconds ~trace:traced in
  let ok_frac = 1. -. per (float_of_int r.failed) r.attempted in
  Printf.printf "failed_frac = %.6g (%d of %d units)\n" (1. -. ok_frac) r.failed
    r.attempted;
  let produced = if traced then r.metrics else ("ok_frac", Float ok_frac) :: r.metrics in
  let names = declared (if traced then "per_layer" else "end_to_end") in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then error "metric %s is not declared" n)
    produced;
  let metrics =
    List.filter_map
      (fun (n, unit) ->
        match List.assoc_opt n produced with
        | Some v -> Some (n, number n v, unit)
        (* set-up time is measured by run.py across launches *)
        | None when n = "setup_s" -> None
        (* a layer this workload does not exercise did no work *)
        | None when traced -> Some (n, "0", unit)
        | None ->
          error "metric %s was not measured" n;
          None)
      names
  in
  List.iter (fun (n, v, unit) -> Printf.printf "%s = %s %s\n" n v unit) metrics;
  let correct = !errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n v unit)
          metrics));
  exit (if correct then 0 else 1)
