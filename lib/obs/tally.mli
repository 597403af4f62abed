(** Named integer counters for the simulator's hot path.

    Every name owns one mutable cell, so bumping an existing counter
    hashes its name at most once and allocates nothing; bumping the same
    string value twice in a row (a literal, or a name built once per
    operation) does not hash at all. *)

type t

val create : unit -> t

(** [add t name n] adds [n] to [name], creating it at 0 first — so
    [add t name 0] materializes the counter. *)
val add : t -> string -> int -> unit

(** Current value; 0 for a name never added. *)
val get : t -> string -> int

(** Every counter, sorted by name. *)
val to_list : t -> (string * int) list
