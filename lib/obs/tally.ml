module Tbl = Hashtbl.Make (String)

(* [last]/[last_cell] cache the most recently bumped name by physical
   identity: a spin loop bumping the same literal (or the same name built
   once per acquire) skips even the one hash.  The sentinel is private to
   this module, so no caller can pass a string physically equal to it. *)
type t = {
  cells : int ref Tbl.t;
  mutable last : string;
  mutable last_cell : int ref;
}

let none = "\000tally:none"
let create () = { cells = Tbl.create 16; last = none; last_cell = ref 0 }

let add t name n =
  if name == t.last then t.last_cell := !(t.last_cell) + n
  else begin
    let cell =
      match Tbl.find t.cells name with
      | cell -> cell
      | exception Not_found ->
        let cell = ref 0 in
        Tbl.add t.cells name cell;
        cell
    in
    cell := !cell + n;
    t.last <- name;
    t.last_cell <- cell
  end

let get t name = match Tbl.find_opt t.cells name with Some c -> !c | None -> 0

let to_list t =
  Tbl.fold (fun name cell acc -> (name, !cell) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
