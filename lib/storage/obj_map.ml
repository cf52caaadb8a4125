type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  default : 'k -> 'v;
  mutable buckets : ('k * 'v) list array;
  mutable size : int;
}

let create ~hash ~equal ~default =
  { hash; equal; default; buckets = Array.make 16 []; size = 0 }

let bucket_index t k = t.hash k land (Array.length t.buckets - 1)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (fun chain ->
      List.iter
        (fun ((k, _) as entry) ->
          let i = bucket_index t k in
          t.buckets.(i) <- entry :: t.buckets.(i))
        chain)
    old

(* Lookups scan a bucket with toplevel functions, so they allocate no
   closure. *)
let rec find_in equal k = function
  | [] -> None
  | (k', v) :: rest -> if equal k k' then Some v else find_in equal k rest

let find_opt t k = find_in t.equal k t.buckets.(bucket_index t k)

let add_new t k v =
  if t.size >= 2 * Array.length t.buckets then resize t;
  let i = bucket_index t k in
  t.buckets.(i) <- (k, v) :: t.buckets.(i);
  t.size <- t.size + 1

(* The replica hot path calls [get] once per request; a direct bucket
   scan keeps the hit case allocation-free (no option box). *)
let rec get_in t k = function
  | [] ->
    let v = t.default k in
    add_new t k v;
    v
  | (k', v) :: rest -> if t.equal k k' then v else get_in t k rest

let get t k = get_in t k t.buckets.(bucket_index t k)

let set t k v =
  let i = bucket_index t k in
  let rec remove = function
    | [] -> None
    | (k', _) :: rest when t.equal k k' -> Some rest
    | entry :: rest -> (
      match remove rest with None -> None | Some r -> Some (entry :: r))
  in
  match remove t.buckets.(i) with
  | Some chain -> t.buckets.(i) <- (k, v) :: chain
  | None -> add_new t k v

let iter t f = Array.iter (fun chain -> List.iter (fun (k, v) -> f k v) chain) t.buckets

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f k v !acc);
  !acc

let clear t =
  t.buckets <- Array.make 16 [];
  t.size <- 0

let length t = t.size

let of_key_default ~default = create ~hash:Key.hash ~equal:Key.equal ~default

let of_int_default ~default =
  create ~hash:(fun (i : int) -> i * 2654435761) ~equal:Int.equal ~default
