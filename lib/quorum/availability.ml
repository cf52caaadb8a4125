type mode = Quorum_system.mode = Read | Write

let predicate qs mode =
  match mode with
  | Read -> fun ~present -> Quorum_system.is_read_quorum qs ~present
  | Write -> fun ~present -> Quorum_system.is_write_quorum qs ~present

(* Member ids are distinct but arbitrary ints; [holds ~present] queries
   membership by id, so the bit-index lookup it implies must be O(1) —
   built once per call, not rediscovered by a linear scan inside the 2^n
   inner loop. Ids are almost always small and dense (0..n-1), where a
   direct array beats hashing; the Hashtbl handles sparse/negative ids. *)
let bit_index_table members =
  let max_id = ref (-1) in
  let min_id = ref max_int in
  Array.iter
    (fun id ->
      if id > !max_id then max_id := id;
      if id < !min_id then min_id := id)
    members;
  let n = Array.length members in
  if n > 0 && !min_id >= 0 && !max_id < (4 * n) + 64 then begin
    let idx = Array.make (!max_id + 1) (-1) in
    Array.iteri (fun i id -> idx.(id) <- i) members;
    fun id -> idx.(id)
  end
  else begin
    let tbl = Hashtbl.create (2 * n) in
    Array.iteri (fun i id -> Hashtbl.replace tbl id i) members;
    fun id -> Hashtbl.find tbl id
  end

(* Exact enumeration over live/dead states of the members, with a
   per-member failure probability. [want_failure] selects whether we
   accumulate the probability of states with no quorum (unavailability)
   or with a quorum (availability). *)
let enumerate qs ~mode ~p ~want_failure =
  let member_array = Array.of_list (Quorum_system.members qs) in
  let n = Array.length member_array in
  if n > 24 then invalid_arg "Availability: quorum system too large for enumeration";
  let holds = predicate qs mode in
  let index_of = bit_index_table member_array in
  let fail = Array.map p member_array in
  let live = Array.map (fun pf -> 1. -. pf) fail in
  let acc = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let present id = mask land (1 lsl index_of id) <> 0 in
    let has_quorum = holds ~present in
    if has_quorum <> want_failure then begin
      let prob = ref 1. in
      for i = 0 to n - 1 do
        prob := !prob *. (if mask land (1 lsl i) <> 0 then live.(i) else fail.(i))
      done;
      acc := !acc +. !prob
    end
  done;
  !acc

let unavailability_p qs ~mode ~p = enumerate qs ~mode ~p ~want_failure:true

let is_uniform_threshold qs mode =
  match Quorum_system.counting_thresholds qs with
  | None -> None
  | Some (read, write) ->
    let n = Quorum_system.size qs in
    let k = match mode with Read -> read | Write -> write in
    Some (n, k)

let unavailability qs ~mode ~p =
  if p <= 0. then 0.
  else if p >= 1. then 1.
  else
    match is_uniform_threshold qs mode with
    | Some (n, k) ->
      (* Up-count X ~ Binomial(n, 1-p); unavailable iff X < k. *)
      Dq_util.Combin.binomial_tail_le ~n ~p:(1. -. p) (k - 1)
    | None -> enumerate qs ~mode ~p:(fun _ -> p) ~want_failure:true

let availability qs ~mode ~p =
  if p <= 0. then 1.
  else if p >= 1. then 0.
  else
    match is_uniform_threshold qs mode with
    | Some (n, k) -> Dq_util.Combin.binomial_tail_ge ~n ~p:(1. -. p) k
    | None -> enumerate qs ~mode ~p:(fun _ -> p) ~want_failure:false

let min_availability qs ~p =
  Float.min (availability qs ~mode:Read ~p) (availability qs ~mode:Write ~p)

let max_unavailability qs ~p =
  Float.max (unavailability qs ~mode:Read ~p) (unavailability qs ~mode:Write ~p)

let unavailability_mc qs ~mode ~p ~rng ~samples =
  if samples <= 0 then invalid_arg "Availability: samples must be positive";
  let members = Array.of_list (Quorum_system.members qs) in
  let n = Array.length members in
  let holds = predicate qs mode in
  let index_of = bit_index_table members in
  let up = Array.make n false in
  let failures = ref 0 in
  let present id = up.(index_of id) in
  for _ = 1 to samples do
    for i = 0 to n - 1 do
      up.(i) <- not (Dq_util.Rng.bernoulli rng p)
    done;
    if not (holds ~present) then incr failures
  done;
  float_of_int !failures /. float_of_int samples
