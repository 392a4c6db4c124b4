type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create ?(capacity = 64) () = { words = Array.make (max 1 ((capacity / bits_per_word) + 1)) 0 }

let ensure t word_idx =
  let cap = Array.length t.words in
  if word_idx >= cap then begin
    let words = Array.make (max (2 * cap) (word_idx + 1)) 0 in
    Array.blit t.words 0 words 0 cap;
    t.words <- words
  end

let mem t x =
  if x < 0 then invalid_arg "Bitset.mem: negative element";
  let w = x / bits_per_word in
  w < Array.length t.words && t.words.(w) land (1 lsl (x mod bits_per_word)) <> 0

let add t x =
  if x < 0 then invalid_arg "Bitset.add: negative element";
  let w = x / bits_per_word in
  ensure t w;
  let bit = 1 lsl (x mod bits_per_word) in
  if t.words.(w) land bit = 0 then begin
    t.words.(w) <- t.words.(w) lor bit;
    true
  end
  else false

(* Index of the highest non-zero word, -1 when empty. Growth follows it,
   not the source's capacity: a [dst] sized by [Array.length src.words]
   would inherit the source's trailing zero words, and under doubling
   those compound from one union to the next. *)
let rec top_from words i = if i < 0 || words.(i) <> 0 then i else top_from words (i - 1)

let top_word t = top_from t.words (Array.length t.words - 1)

let union_into ~dst src =
  let n = top_word src + 1 in
  if n > 0 then ensure dst (n - 1);
  let changed = ref false in
  for i = 0 to n - 1 do
    let merged = dst.words.(i) lor src.words.(i) in
    if merged <> dst.words.(i) then begin
      dst.words.(i) <- merged;
      changed := true
    end
  done;
  !changed

let diff_union_into ~dst ~delta src =
  let n = top_word src + 1 in
  if n > 0 then begin
    ensure dst (n - 1);
    ensure delta (n - 1)
  end;
  let changed = ref false in
  for i = 0 to n - 1 do
    let fresh = src.words.(i) land lnot dst.words.(i) in
    if fresh <> 0 then begin
      dst.words.(i) <- dst.words.(i) lor fresh;
      delta.words.(i) <- delta.words.(i) lor fresh;
      changed := true
    end
  done;
  !changed

let inter_empty a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let choose_singleton t =
  let found = ref (-1) in
  try
    Array.iteri
      (fun i w ->
        if w <> 0 then begin
          if !found >= 0 || w land (w - 1) <> 0 then raise Exit;
          let rec bit_index b j = if b land 1 <> 0 then j else bit_index (b lsr 1) (j + 1) in
          found := (i * bits_per_word) + bit_index w 0
        end)
      t.words;
    if !found >= 0 then Some !found else None
  with Exit -> None

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin
    n := 32;
    w := !w lsr 32
  end;
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then !n + 1 else !n

let iter t f =
  let words = t.words in
  for i = 0 to Array.length words - 1 do
    let w = ref words.(i) in
    while !w <> 0 do
      f ((i * bits_per_word) + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))

let copy t = { words = Array.copy t.words }

let equal a b =
  let n = max (Array.length a.words) (Array.length b.words) in
  let get t i = if i < Array.length t.words then t.words.(i) else 0 in
  let rec go i = i >= n || (get a i = get b i && go (i + 1)) in
  go 0

let subset a b =
  let n = Array.length a.words in
  let get t i = if i < Array.length t.words then t.words.(i) else 0 in
  let rec go i = i >= n || (a.words.(i) land lnot (get b i) = 0 && go (i + 1)) in
  go 0
