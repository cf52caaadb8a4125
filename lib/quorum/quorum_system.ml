type mode = Read | Write

type spec =
  | Threshold of { read : int; write : int }
  | Grid of { rows : int; cols : int }
  | Weighted of { votes : int array; read : int; write : int }
      (* votes.(i) belongs to members.(i) *)

(* [member_list] and [counting] are derived from [members] and [spec]
   once, so that the hot paths that read them allocate nothing. *)
type t = {
  name : string;
  members : int array;
  member_list : int list;
  spec : spec;
  counting : (int * int) option;
}

let make ~name members spec =
  let counting =
    match spec with
    | Threshold { read; write } -> Some (read, write)
    | Grid _ | Weighted _ -> None
  in
  { name; members = Array.of_list members; member_list = members; spec; counting }

let name t = t.name

let members t = t.member_list

let size t = Array.length t.members

let mem t id = Array.exists (fun m -> m = id) t.members

(* Members present among responders. *)
let count_present t ~present =
  Array.fold_left (fun acc m -> if present m then acc + 1 else acc) 0 t.members

(* Grid cell (r, c) holds member index r * cols + c. *)
let grid_member t ~cols ~row ~col = t.members.((row * cols) + col)

let column_covered t ~rows ~cols ~present col =
  let rec cover row =
    row < rows && (present (grid_member t ~cols ~row ~col) || cover (row + 1))
  in
  cover 0

let all_columns_covered t ~rows ~cols ~present =
  let rec check col = col >= cols || (column_covered t ~rows ~cols ~present col && check (col + 1)) in
  check 0

let full_column_present t ~rows ~cols ~present col =
  let rec full row =
    row >= rows || (present (grid_member t ~cols ~row ~col) && full (row + 1))
  in
  full 0

let some_full_column t ~rows ~cols ~present =
  let rec scan col = col < cols && (full_column_present t ~rows ~cols ~present col || scan (col + 1)) in
  scan 0

let votes_present t ~votes ~present =
  let total = ref 0 in
  Array.iteri (fun i m -> if present m then total := !total + votes.(i)) t.members;
  !total

let is_read_quorum t ~present =
  match t.spec with
  | Threshold { read; _ } -> count_present t ~present >= read
  | Grid { rows; cols } -> all_columns_covered t ~rows ~cols ~present
  | Weighted { votes; read; _ } -> votes_present t ~votes ~present >= read

let is_write_quorum t ~present =
  match t.spec with
  | Threshold { write; _ } -> count_present t ~present >= write
  | Grid { rows; cols } ->
    all_columns_covered t ~rows ~cols ~present && some_full_column t ~rows ~cols ~present
  | Weighted { votes; write; _ } -> votes_present t ~votes ~present >= write

let present_of_list ids =
  let set = List.sort_uniq Int.compare ids in
  fun id -> List.mem id set

let is_read_quorum_list t ids = is_read_quorum t ~present:(present_of_list ids)

let is_write_quorum_list t ids = is_write_quorum t ~present:(present_of_list ids)

let is_quorum_list t mode ids =
  match mode with
  | Read -> is_read_quorum_list t ids
  | Write -> is_write_quorum_list t ids

(* --- Enumeration --------------------------------------------------------- *)

let enumeration_bound = 16

(* Map member id -> bit index, for mask-based enumeration. *)
let bit_index t =
  let tbl = Hashtbl.create (2 * Array.length t.members) in
  Array.iteri (fun i id -> Hashtbl.replace tbl id i) t.members;
  fun id -> Hashtbl.find tbl id

let members_of_mask t mask =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if mask land (1 lsl i) <> 0 then t.members.(i) :: acc else acc)
  in
  collect (Array.length t.members - 1) []

(* Minimal satisfying sets of a monotone predicate over the members.
   All our quorum predicates are monotone (adding responders never
   destroys a quorum), so a satisfying mask is minimal iff dropping any
   single member breaks it. Masks ascend, so the result is ordered by
   the bit pattern of member indices — stable across runs. *)
let minimal_sets t holds =
  let n = Array.length t.members in
  if n > enumeration_bound then
    invalid_arg
      (Printf.sprintf "Quorum_system: %d members exceed the enumeration bound (%d)" n
         enumeration_bound);
  let index_of = bit_index t in
  let satisfies mask =
    holds ~present:(fun id -> mask land (1 lsl index_of id) <> 0)
  in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if satisfies mask then begin
      let minimal = ref true in
      let i = ref 0 in
      while !minimal && !i < n do
        if mask land (1 lsl !i) <> 0 && satisfies (mask land lnot (1 lsl !i)) then
          minimal := false;
        incr i
      done;
      if !minimal then out := members_of_mask t mask :: !out
    end
  done;
  List.rev !out

let read_quorums t = minimal_sets t (fun ~present -> is_read_quorum t ~present)

let write_quorums t = minimal_sets t (fun ~present -> is_write_quorum t ~present)

let quorums t mode = match mode with Read -> read_quorums t | Write -> write_quorums t

(* --- Generalized intersection checking ----------------------------------- *)

(* The single predicate every construction (threshold, majority, ROWA,
   grid, weighted — and later masking/coded variants) must satisfy:
   every read quorum overlaps every write quorum in at least
   [rw_overlap] members, and write quorums pairwise overlap in at least
   [ww_overlap]. Plain regular/atomic registers need overlap 1; masking
   (Byzantine) quorum systems will instantiate it with 2f+1. *)
let check_intersection ?(rw_overlap = 1) ?(ww_overlap = 1) ~read_quorums ~write_quorums ()
    =
  let overlap a b =
    List.length (List.filter (fun x -> List.exists (Int.equal x) b) a)
  in
  let bad_rw =
    List.exists
      (fun r -> List.exists (fun w -> overlap r w < rw_overlap) write_quorums)
      read_quorums
  in
  if bad_rw then Error "a read quorum misses a write quorum"
  else
    let bad_ww =
      List.exists
        (fun w1 -> List.exists (fun w2 -> overlap w1 w2 < ww_overlap) write_quorums)
        write_quorums
    in
    if bad_ww then Error "two write quorums are disjoint" else Ok ()

(* Fewest members whose votes reach [target]: take the biggest votes. *)
let min_weighted_members votes target =
  let sorted = Array.copy votes in
  Array.sort (fun a b -> Int.compare b a) sorted;
  let rec take i acc = if acc >= target then i else take (i + 1) (acc + sorted.(i)) in
  take 0 0

let min_read_size t =
  match t.spec with
  | Threshold { read; _ } -> read
  | Grid { cols; _ } -> cols
  | Weighted { votes; read; _ } -> min_weighted_members votes read

let min_write_size t =
  match t.spec with
  | Threshold { write; _ } -> write
  | Grid { rows; cols } -> rows + cols - 1
  | Weighted { votes; write; _ } -> min_weighted_members votes write

(* Accumulate members in random order until their votes reach [target]. *)
let choose_weighted t ~votes ~target rng =
  let order = Array.init (Array.length t.members) Fun.id in
  Dq_util.Rng.shuffle rng order;
  let rec take i acc chosen =
    if acc >= target then List.rev chosen
    else take (i + 1) (acc + votes.(order.(i))) (t.members.(order.(i)) :: chosen)
  in
  take 0 0 []

let choose_read t rng =
  match t.spec with
  | Threshold { read; _ } -> Dq_util.Rng.sample rng (members t) read
  | Weighted { votes; read; _ } -> choose_weighted t ~votes ~target:read rng
  | Grid { rows; cols } ->
    List.init cols (fun col ->
        let row = Dq_util.Rng.int rng rows in
        grid_member t ~cols ~row ~col)

let choose_write t rng =
  match t.spec with
  | Threshold { write; _ } -> Dq_util.Rng.sample rng (members t) write
  | Weighted { votes; write; _ } -> choose_weighted t ~votes ~target:write rng
  | Grid { rows; cols } ->
    let full_col = Dq_util.Rng.int rng cols in
    let full = List.init rows (fun row -> grid_member t ~cols ~row ~col:full_col) in
    let cover =
      List.filter_map
        (fun col ->
          if col = full_col then None
          else
            let row = Dq_util.Rng.int rng rows in
            Some (grid_member t ~cols ~row ~col))
        (List.init cols Fun.id)
    in
    full @ cover

let choose t mode rng =
  match mode with Read -> choose_read t rng | Write -> choose_write t rng

let threshold ~name ~members ~read ~write =
  let n = List.length members in
  if n = 0 then invalid_arg "Quorum_system.threshold: no members";
  if read < 1 || read > n then invalid_arg "Quorum_system.threshold: bad read size";
  if write < 1 || write > n then invalid_arg "Quorum_system.threshold: bad write size";
  if read + write <= n then
    invalid_arg "Quorum_system.threshold: read and write quorums must intersect";
  if 2 * write <= n then
    invalid_arg "Quorum_system.threshold: write quorums must pairwise intersect";
  make ~name members (Threshold { read; write })

let majority members =
  let n = List.length members in
  let q = (n / 2) + 1 in
  threshold ~name:(Printf.sprintf "majority(%d)" n) ~members ~read:q ~write:q

let rowa members =
  let n = List.length members in
  threshold ~name:(Printf.sprintf "rowa(%d)" n) ~members ~read:1 ~write:n

let grid ~rows ~cols members =
  let n = List.length members in
  if rows < 1 || cols < 1 || rows * cols <> n then
    invalid_arg "Quorum_system.grid: rows * cols must equal the member count";
  make ~name:(Printf.sprintf "grid(%dx%d)" rows cols) members (Grid { rows; cols })

let counting_thresholds t = t.counting

let weighted ~name ~members ~read ~write =
  let votes = Array.of_list (List.map snd members) in
  let ids = List.map fst members in
  let total = Array.fold_left ( + ) 0 votes in
  (match ids with
  | [] -> invalid_arg "Quorum_system.weighted: no members"
  | _ :: _ -> ());
  if Array.exists (fun v -> v < 0) votes then
    invalid_arg "Quorum_system.weighted: negative votes";
  if read < 1 || read > total || write < 1 || write > total then
    invalid_arg "Quorum_system.weighted: quorum votes out of range";
  if read + write <= total then
    invalid_arg "Quorum_system.weighted: read and write quorums must intersect";
  if 2 * write <= total then
    invalid_arg "Quorum_system.weighted: write quorums must pairwise intersect";
  make ~name ids (Weighted { votes; read; write })

let validate t =
  if size t > enumeration_bound then
    Ok () (* exhaustive check too large; construction invariants hold *)
  else
    (* Checking the minimal quorums suffices: the predicates are
       monotone, so every quorum contains a minimal one and any overlap
       shortfall already shows up between two minimal quorums. *)
    check_intersection ~read_quorums:(read_quorums t) ~write_quorums:(write_quorums t) ()

let pp ppf t =
  Format.fprintf ppf "%s{" t.name;
  Array.iteri (fun i m -> Format.fprintf ppf (if i = 0 then "%d" else ",%d") m) t.members;
  Format.fprintf ppf "}"
