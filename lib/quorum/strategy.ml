module Qs = Quorum_system

type dist = {
  quorums : int list array;
  probs : float array;
  cumulative : float array; (* cumulative.(i) = sum probs.(0..i) *)
}

type kind = Implicit | Explicit of dist

type t = { system : Qs.t; mode : Qs.mode; kind : kind }

let system t = t.system

let mode t = t.mode

let is_default t = match t.kind with Implicit -> true | Explicit _ -> false

let default system mode = { system; mode; kind = Implicit }

let default_read system = default system Qs.Read

let default_write system = default system Qs.Write

let explicit system mode weighted_quorums =
  (match weighted_quorums with
  | [] -> invalid_arg "Strategy.explicit: empty distribution"
  | _ :: _ -> ());
  let weighted_quorums =
    List.filter (fun (_, p) -> p <> 0.) weighted_quorums
  in
  List.iter
    (fun (q, p) ->
      if p < 0. || not (Float.is_finite p) then
        invalid_arg "Strategy.explicit: probabilities must be finite and non-negative";
      if not (Qs.is_quorum_list system mode q) then
        invalid_arg
          (Printf.sprintf "Strategy.explicit: [%s] is not a %s quorum of %s"
             (String.concat ";" (List.map string_of_int q))
             (match mode with Qs.Read -> "read" | Qs.Write -> "write")
             (Qs.name system)))
    weighted_quorums;
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. weighted_quorums in
  if total <= 0. then invalid_arg "Strategy.explicit: probabilities sum to zero";
  let quorums = Array.of_list (List.map fst weighted_quorums) in
  let probs = Array.of_list (List.map (fun (_, p) -> p /. total) weighted_quorums) in
  let cumulative = Array.make (Array.length probs) 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cumulative.(i) <- !acc)
    probs;
  (* Guard the sampler against rounding: the last bucket absorbs it. *)
  cumulative.(Array.length cumulative - 1) <- 1.;
  { system; mode; kind = Explicit { quorums; probs; cumulative } }

let uniform system mode =
  let quorums = Qs.quorums system mode in
  explicit system mode (List.map (fun q -> (q, 1.)) quorums)

let uniform_read system = uniform system Qs.Read

let distribution t =
  match t.kind with
  | Implicit -> None
  | Explicit { quorums; probs; _ } ->
    Some (List.combine (Array.to_list quorums) (Array.to_list probs))

let support t =
  match t.kind with
  | Implicit -> None
  | Explicit { quorums; _ } -> Some (Array.to_list quorums)

let sample t rng =
  match t.kind with
  | Implicit -> Qs.choose t.system t.mode rng
  | Explicit { quorums; cumulative; _ } ->
    let u = Dq_util.Rng.float rng 1.0 in
    (* First index with cumulative.(i) > u. *)
    let n = Array.length cumulative in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > u then hi := mid else lo := mid + 1
    done;
    quorums.(!lo)

(* --- Exact computations (explicit strategies only) ----------------------- *)

let require_explicit t what =
  match t.kind with
  | Explicit e -> e
  | Implicit ->
    invalid_arg
      (Printf.sprintf
         "Strategy.%s: the default (implicit) strategy has no closed-form \
          distribution; use Strategy.uniform or Strategy.explicit"
         what)

let node_load t id =
  let e = require_explicit t "node_load" in
  let acc = ref 0. in
  Array.iteri
    (fun i q -> if List.mem id q then acc := !acc +. e.probs.(i))
    e.quorums;
  !acc

let load t =
  ignore (require_explicit t "load");
  List.fold_left (fun acc id -> Float.max acc (node_load t id)) 0. (Qs.members t.system)

let capacity t = 1. /. load t

let expected_latency t ~latency_ms =
  let e = require_explicit t "expected_latency" in
  let acc = ref 0. in
  Array.iteri
    (fun i q ->
      let worst = List.fold_left (fun m id -> Float.max m (latency_ms id)) 0. q in
      acc := !acc +. (e.probs.(i) *. worst))
    e.quorums;
  !acc

let expected_size t =
  let e = require_explicit t "expected_size" in
  let acc = ref 0. in
  Array.iteri
    (fun i q -> acc := !acc +. (e.probs.(i) *. float_of_int (List.length q)))
    e.quorums;
  !acc

let pp ppf t =
  let mode = match t.mode with Qs.Read -> "read" | Qs.Write -> "write" in
  match t.kind with
  | Implicit -> Format.fprintf ppf "default-%s(%s)" mode (Qs.name t.system)
  | Explicit { quorums; probs; _ } ->
    Format.fprintf ppf "%s(%s){" mode (Qs.name t.system);
    Array.iteri
      (fun i q ->
        Format.fprintf ppf (if i = 0 then "[%s]:%.3f" else " [%s]:%.3f")
          (String.concat ";" (List.map string_of_int q))
          probs.(i))
      quorums;
    Format.fprintf ppf "}"
