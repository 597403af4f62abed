module Tid = Threads_util.Tid

type t = Machine.t -> Tid.t list -> Tid.t

let random seed =
  let rng = Threads_util.Rng.create seed in
  fun _m runnable ->
    Threads_util.Rng.pick_list rng runnable

let round_robin () =
  let last = ref (-1) in
  fun _m runnable ->
    let next =
      match List.find_opt (fun tid -> tid > !last) runnable with
      | Some tid -> tid
      | None -> List.hd runnable
    in
    last := next;
    next

(* The first interrupt-context thread in [runnable], or -1. *)
let rec first_interrupt m = function
  | [] -> -1
  | tid :: rest ->
    if Machine.is_interrupt m tid then tid else first_interrupt m rest

let prefer_interrupts inner m runnable =
  let tid = first_interrupt m runnable in
  if tid >= 0 then tid else inner m runnable

let replay prefix fallback =
  let remaining = ref prefix in
  fun m runnable ->
    match !remaining with
    | [] -> fallback m runnable
    | tid :: rest ->
      remaining := rest;
      if not (List.mem tid runnable) then
        failwith
          (Printf.sprintf "Sched.replay: t%d not runnable at replay point" tid);
      tid
