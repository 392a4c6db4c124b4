(* Linear probing over two parallel int arrays; slot [i] is empty when
   [fst.(i) = -1]. The table doubles at half load, so probe runs stay
   short. [log] lists the occupied slots in insertion order, which makes
   [clear] cost the number of pairs rather than the capacity, and [iter]
   deterministic. *)
type t = {
  mutable fst : int array;
  mutable snd : int array;
  mutable log : int array;
  mutable size : int;
}

let capacity_for n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  !cap

let create n =
  let cap = capacity_for n in
  { fst = Array.make cap (-1); snd = Array.make cap 0; log = Array.make (cap / 2) 0; size = 0 }

let length t = t.size

let hash a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  h lxor (h lsr 29)

(* The slot holding (a, b), or the empty slot where it would go. *)
let slot fst snd a b =
  let mask = Array.length fst - 1 in
  let i = ref (hash a b land mask) in
  while
    let k = Array.unsafe_get fst !i in
    k <> -1 && not (k = a && Array.unsafe_get snd !i = b)
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let cap = 2 * Array.length t.fst in
  let fst = Array.make cap (-1) and snd = Array.make cap 0 and log = Array.make (cap / 2) 0 in
  for k = 0 to t.size - 1 do
    let i = t.log.(k) in
    let a = t.fst.(i) and b = t.snd.(i) in
    let j = slot fst snd a b in
    fst.(j) <- a;
    snd.(j) <- b;
    log.(k) <- j
  done;
  t.fst <- fst;
  t.snd <- snd;
  t.log <- log

let mem t a b = t.fst.(slot t.fst t.snd a b) <> -1

let add t a b =
  if a < 0 then invalid_arg "Pairset.add: negative first component";
  let i = slot t.fst t.snd a b in
  if t.fst.(i) <> -1 then false
  else begin
    t.fst.(i) <- a;
    t.snd.(i) <- b;
    t.log.(t.size) <- i;
    t.size <- t.size + 1;
    if 2 * t.size >= Array.length t.fst then grow t;
    true
  end

(* A table some earlier use grew very large is dropped rather than kept:
   small sets probe faster in a small table. *)
let clear t =
  if Array.length t.fst > 1 lsl 16 then begin
    t.fst <- Array.make 16 (-1);
    t.snd <- Array.make 16 0;
    t.log <- Array.make 8 0
  end
  else
    for k = 0 to t.size - 1 do
      t.fst.(t.log.(k)) <- -1
    done;
  t.size <- 0

let iter f t =
  for k = 0 to t.size - 1 do
    let i = t.log.(k) in
    f t.fst.(i) t.snd.(i)
  done

let nth_fst t k = t.fst.(t.log.(k))
let nth_snd t k = t.snd.(t.log.(k))
