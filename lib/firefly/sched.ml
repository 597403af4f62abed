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
