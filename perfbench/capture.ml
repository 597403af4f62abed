(* Capturing an experiment's standard output, and comparing it with a
   kept reference once the host-timed cells are masked. *)

(* [output ~dir f] runs [f] with file descriptor 1 redirected to a scratch
   file under [dir] and returns what it printed, or the exception it
   raised.  Both the Stdlib channel and the Format formatter are flushed
   on either side of the redirection. *)
let output ~dir f =
  let flush_all () =
    Format.pp_print_flush Format.std_formatter ();
    flush Stdlib.stdout
  in
  let path = Filename.temp_file ~temp_dir:dir "perfbench" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush_all ();
  Unix.dup2 fd Unix.stdout;
  let result = try Ok (f ()) with e -> Error e in
  flush_all ();
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  Unix.close fd;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Result.map (fun () -> text) result

(* Table cells whose value is a host measurement (E1b's real-hardware
   lock timings, E9's checker timings and throughput).  Everything else
   an experiment prints is a deterministic function of its pinned seeds. *)
let timed_columns = [ "ns / pair"; "ms" ]
let timed_rows = [ "events / second" ]

let is_border l =
  String.length l > 0
  && l.[0] = '+'
  && String.for_all (fun c -> c = '+' || c = '-') l

(* The trimmed cells of a table row, without the empty strings outside
   its outer bars. *)
let cells l =
  match List.map String.trim (String.split_on_char '|' l) with
  | _ :: inner -> List.filteri (fun i _ -> i < List.length inner - 1) inner
  | [] -> []

(* [mask text] — [text] with table padding normalized (column widths
   follow the widest cell, which host timings change) and host-timed
   cells replaced by [~]. *)
let mask text =
  let header = ref None and expect_header = ref false in
  let line l =
    if is_border l then begin
      if !header = None then expect_header := true;
      "+"
    end
    else if String.length l > 0 && l.[0] = '|' then begin
      let cs = cells l in
      let cs =
        if !expect_header then begin
          header := Some cs;
          expect_header := false;
          cs
        end
        else
          let hdr = Option.value ~default:[] !header in
          let row_timed = match cs with c :: _ -> List.mem c timed_rows | [] -> false in
          List.mapi
            (fun j c ->
              let col_timed =
                match List.nth_opt hdr j with
                | Some h -> List.mem h timed_columns
                | None -> false
              in
              if col_timed || (row_timed && j > 0) then "~" else c)
            cs
      in
      "| " ^ String.concat " | " cs ^ " |"
    end
    else begin
      header := None;
      expect_header := false;
      l
    end
  in
  String.concat "\n" (List.map line (String.split_on_char '\n' text))
