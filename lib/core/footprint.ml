module Pairset = Pts_util.Pairset

(* [| lo; w1; ...; wk |]: bit [b] of word [wi] stands for node
   [lo + (i - 1) * width + b]. [lo] is the lowest node, so a non-empty
   footprint has bit 0 of [w1] set; the empty one is [[||]]. *)
type t = int array

let width = Sys.int_size

let empty : t = [||]

let alloc ~lo ~hi =
  let fp = Array.make (2 + ((hi - lo) / width)) 0 in
  fp.(0) <- lo;
  fp

let set fp v =
  let d = v - fp.(0) in
  let i = 1 + (d / width) in
  fp.(i) <- fp.(i) lor (1 lsl (d mod width))

let of_nodes = function
  | [] -> empty
  | v0 :: _ as vs ->
    let lo = ref v0 and hi = ref v0 in
    List.iter
      (fun v ->
        if v < 0 then invalid_arg "Footprint.of_nodes: negative node";
        if v < !lo then lo := v;
        if v > !hi then hi := v)
      vs;
    let fp = alloc ~lo:!lo ~hi:!hi in
    List.iter (set fp) vs;
    fp

let nodes (fp : t) =
  let acc = ref [] in
  for i = Array.length fp - 1 downto 1 do
    let base = fp.(0) + ((i - 1) * width) and w = fp.(i) in
    for b = width - 1 downto 0 do
      if (w lsr b) land 1 <> 0 then acc := (base + b) :: !acc
    done
  done;
  !acc

let of_pairs s ~snd ~mask =
  let lo = ref max_int and hi = ref (-1) in
  for k = 0 to Pairset.length s - 1 do
    if Pairset.nth_snd s k = snd then begin
      let v = Pairset.nth_fst s k land mask in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    end
  done;
  if !hi < 0 then empty
  else begin
    let fp = alloc ~lo:!lo ~hi:!hi in
    for k = 0 to Pairset.length s - 1 do
      if Pairset.nth_snd s k = snd then set fp (Pairset.nth_fst s k land mask)
    done;
    fp
  end

let stale dirty =
  let top = List.fold_left max (-1) dirty in
  let bits = Array.make (1 + (top / width) + 1) 0 in
  List.iter
    (fun d -> if d >= 0 then bits.(d / width) <- bits.(d / width) lor (1 lsl (d mod width)))
    dirty;
  let word j = if j < Array.length bits then bits.(j) else 0 in
  (* the dirty bits of nodes [base, base + width) as one word *)
  let window base =
    let j = base / width and r = base mod width in
    if r = 0 then word j else (word j lsr r) lor (word (j + 1) lsl (width - r))
  in
  fun (fp : t) ->
    let n = Array.length fp in
    let rec meets i =
      i < n && (window (fp.(0) + ((i - 1) * width)) land fp.(i) <> 0 || meets (i + 1))
    in
    n = 0 || meets 1
