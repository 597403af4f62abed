(* Splitmix64, truncated to OCaml's 63-bit native ints.  The constants are
   the standard ones from Steele, Lea & Flood, "Fast Splittable Pseudorandom
   Number Generators" (OOPSLA 2014). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let next t =
  (* Mask to 62 bits so the result is non-negative on 64-bit OCaml. *)
  Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias for large bounds. *)
  let limit = 0x3FFFFFFFFFFFFFFF / bound * bound in
  let rec draw () =
    let r = next t in
    if r < limit then r mod bound else draw ()
  in
  draw ()

let bool t = Int64.logand (next64 t) 1L = 1L

let float t = float_of_int (next t) *. (1.0 /. 4611686018427387904.0)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t xs =
  assert (match xs with [] -> false | _ :: _ -> true);
  List.nth xs (int t (List.length xs))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = { state = mix (next64 t) }

(* Matrix cells must not share a generator (domain-safety) nor overlap
   streams (statistical independence): hash (base, index) through the
   output mixer so adjacent cells land in unrelated regions of the
   splitmix sequence, instead of seeding with [base + index] directly —
   raw consecutive seeds produce correlated first draws. *)
let cell ~base ~index =
  assert (index >= 0);
  {
    state =
      mix
        (Int64.add (Int64.of_int base)
           (Int64.mul (Int64.of_int (index + 1)) golden_gamma));
  }
