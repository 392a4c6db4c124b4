type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 16

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let bump t name = incr (cell t name)

let add t name n =
  let r = cell t name in
  r := !r + n

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let merge_into ~into src = Hashtbl.iter (fun k r -> add into k !r) src

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  List.iter (fun (k, v) -> Format.fprintf fmt "%s = %d@." k v) (to_list t)

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

