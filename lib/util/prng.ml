type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

let copy t = { state = t.state }

(* SplitMix64 core step: fixed-increment state, then a 64-bit finaliser. *)
let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next64 t in
  { state = Int64.mul seed 0xDA942042E4DD58B5L }

let nonneg t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  nonneg t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t bound =
  let mask53 = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float mask53 /. 9007199254740992.0 *. bound

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let weighted t cases =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 cases in
  if total <= 0 then invalid_arg "Prng.weighted: no positive weight";
  let rec pick n = function
    | [] -> assert false
    | (w, x) :: rest -> if n < w then x else pick (n - max 0 w) rest
  in
  pick (int t total) cases

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  let n = min k (Array.length arr) in
  Array.to_list (Array.sub arr 0 n)
