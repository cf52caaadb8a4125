open Dq_storage

type violation = {
  read : History.op;
  returned_write : History.op option;
  expected_lc : Lc.t;
  reason : string;
}

type report = { reads : int; checked : int; violations : violation list }

(* Does write [w] overlap read [r] in real time? A write without a
   response is concurrent with everything after its invocation. *)
let concurrent (w : History.op) (r : History.op) =
  match r.responded with
  | None -> false (* incomplete reads are not checked *)
  | Some r_end -> (
    w.invoked < r_end
    && match w.responded with None -> true | Some w_end -> w_end > r.invoked)

(* For each key: [freshest.(j)] is the position in [index.writes] of the
   completed write with the highest logical clock among the first
   [j + 1] by response time. Equal clocks resolve to the later write in
   input order. *)
type key_state = { index : Write_index.key_writes; freshest : int array }

let key_state (kw : Write_index.key_writes) =
  let freshest = Array.make (Array.length kw.by_end) 0 in
  Array.iteri
    (fun j i ->
      let best = if j = 0 then i else freshest.(j - 1) in
      let c = Lc.compare kw.lcs.(i) kw.lcs.(best) in
      freshest.(j) <- (if c > 0 || (c = 0 && i > best) then i else best))
    kw.by_end;
  { index = kw; freshest }

(* The completed write with the highest logical clock among those that
   responded before the read began. *)
let freshest_completed_before states (r : History.op) =
  match Hashtbl.find_opt states r.key with
  | None -> None
  | Some { index; freshest } -> (
    match Write_index.ended_by index r.invoked with
    | 0 -> None
    | n -> Some index.writes.(freshest.(n - 1)))

let check_read ~freshest ~by_value (r : History.op) =
  (* [freshest] completed, so it carries a clock. *)
  let expected_lc =
    match freshest with Some { History.lc = Some lc; _ } -> lc | Some _ | None -> Lc.zero
  in
  let fail ?returned_write reason = Some { read = r; returned_write; expected_lc; reason } in
  if r.value = "" then
    (* The initial value: legal iff no write had completed before the
       read began (a concurrent write's pre-state is the initial value
       only in that case too). *)
    match freshest with
    | None -> None
    | Some w ->
      fail ~returned_write:w
        (Format.asprintf "read returned the initial value after write lc=%a completed" Lc.pp
           expected_lc)
  else
    match Hashtbl.find_opt by_value r.value with
    | None -> fail "read returned a value never written to this key"
    | Some (w : History.op) ->
      let is_freshest = match freshest with Some fw -> fw.id = w.id | None -> false in
      if is_freshest || concurrent w r then None
      else
        fail ~returned_write:w
          (Format.asprintf
             "stale read: returned write lc=%s but the freshest completed write has lc=%a"
             (match w.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "?")
             Lc.pp expected_lc)

let check ops =
  let states = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key kw -> Hashtbl.replace states key (key_state kw))
    (Write_index.build ops);
  (* Every write's value, per key; a duplicated value resolves to the
     last write. *)
  let values = Hashtbl.create 64 in
  List.iter
    (fun (op : History.op) ->
      match op.kind with
      | History.Write ->
        let by_value =
          match Hashtbl.find_opt values op.key with
          | Some by_value -> by_value
          | None ->
            let by_value = Hashtbl.create 64 in
            Hashtbl.add values op.key by_value;
            by_value
        in
        Hashtbl.replace by_value op.value op
      | History.Read -> ())
    ops;
  let no_values = Hashtbl.create 1 in
  let reads = ref 0 and checked = ref 0 and violations = ref [] in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded with
      | History.Read, None -> incr reads
      | History.Read, Some _ -> (
        incr reads;
        incr checked;
        let freshest = freshest_completed_before states op in
        let by_value = Option.value (Hashtbl.find_opt values op.key) ~default:no_values in
        match check_read ~freshest ~by_value op with
        | Some v -> violations := v :: !violations
        | None -> ())
      | History.Write, _ -> ())
    ops;
  { reads = !reads; checked = !checked; violations = List.rev !violations }

let is_regular ops =
  match (check ops).violations with [] -> true | _ :: _ -> false

type inversion = {
  first_read : History.op;
  second_read : History.op;
  first_lc : Lc.t;
  second_lc : Lc.t;
}

(* One key's completed reads that carry a clock, sorted by response
   time (equal times in reverse input order), with a running maximum of
   their clocks. *)
type read_run = {
  sorted : History.op array;
  ends : float array;
  lcs : Lc.t array;
  newest : Lc.t array;  (** [newest.(j)]: the highest clock in [lcs.(0)] .. [lcs.(j)] *)
}

(* [rev_reads]: (read, response time, clock), newest first. *)
let read_run rev_reads =
  let reads = Array.of_list rev_reads in
  Array.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare a b) reads;
  let lcs = Array.map (fun (_, _, lc) -> lc) reads in
  let newest = Array.copy lcs in
  for j = 1 to Array.length newest - 1 do
    newest.(j) <- Lc.max newest.(j - 1) newest.(j)
  done;
  {
    sorted = Array.map (fun (op, _, _) -> op) reads;
    ends = Array.map (fun (_, r_end, _) -> r_end) reads;
    lcs;
    newest;
  }

let read_runs ops =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Read, Some r_end, Some lc -> (
        match Hashtbl.find_opt by_key op.key with
        | Some reads -> reads := (op, r_end, lc) :: !reads
        | None -> Hashtbl.add by_key op.key (ref [ (op, r_end, lc) ]))
      | _ -> ())
    ops;
  Hashtbl.fold (fun key reads runs -> (key, read_run !reads) :: runs) by_key []
  (* key order, so no caller sees hash order (R7) *)
  |> List.sort (fun (a, _) (b, _) -> Key.compare a b)
  |> List.map snd

(* How many reads precede [run.sorted.(i)] in response order and
   responded at or before its invocation: the candidates for the first
   read of an inversion whose second read is [run.sorted.(i)]. *)
let preceding run i =
  let invoked = run.sorted.(i).History.invoked in
  Write_index.partition_point i (fun j -> run.ends.(j) <= invoked)

let inverted run i =
  match preceding run i with 0 -> false | m -> Lc.(run.newest.(m - 1) > run.lcs.(i))

let new_old_inversions ops =
  (* Flag any later (non-overlapping) read of a key that observed an
     older logical clock. Pairs are enumerated only for a read whose
     predecessors' running maximum shows that one exists. *)
  List.concat_map
    (fun run ->
      let acc = ref [] in
      Array.iteri
        (fun i second_read ->
          if inverted run i then
            for j = 0 to preceding run i - 1 do
              if Lc.(run.lcs.(j) > run.lcs.(i)) then
                acc :=
                  {
                    first_read = run.sorted.(j);
                    second_read;
                    first_lc = run.lcs.(j);
                    second_lc = run.lcs.(i);
                  }
                  :: !acc
            done)
        run.sorted;
      !acc)
    (read_runs ops)
  |> List.sort (fun a b ->
         match Int.compare a.first_read.History.id b.first_read.History.id with
         | 0 -> Int.compare a.second_read.History.id b.second_read.History.id
         | c -> c)

let is_atomic ops =
  is_regular ops
  && not
       (List.exists
          (fun run ->
            let rec from i = i < Array.length run.sorted && (inverted run i || from (i + 1)) in
            from 0)
          (read_runs ops))

let pp_report ppf report =
  Format.fprintf ppf "reads=%d checked=%d violations=%d" report.reads report.checked
    (List.length report.violations);
  List.iteri
    (fun i v ->
      if i < 5 then
        Format.fprintf ppf "@,  [%d] op%d on %a at %.1f: %s" i v.read.History.id Key.pp
          v.read.History.key v.read.History.invoked v.reason)
    report.violations

type session_report = { ryw_violations : int; monotonic_violations : int }

let check_sessions ops =
  (* Closed-loop clients issue operations sequentially, so id order is
     session order within a client. *)
  let floors = Hashtbl.create 32 in
  (* (client, key) -> (max own completed write lc, max own read lc) *)
  let ryw = ref 0 and monotonic = ref 0 in
  List.iter
    (fun (op : History.op) ->
      match op.responded, op.lc with
      | Some _, Some lc -> (
        let slot = (op.client, op.key) in
        let write_floor, read_floor =
          Option.value (Hashtbl.find_opt floors slot) ~default:(Lc.zero, Lc.zero)
        in
        match op.kind with
        | History.Write -> Hashtbl.replace floors slot (Lc.max write_floor lc, read_floor)
        | History.Read ->
          if Lc.(lc < write_floor) then incr ryw;
          if Lc.(lc < read_floor) then incr monotonic;
          Hashtbl.replace floors slot (write_floor, Lc.max read_floor lc))
      | _ -> ())
    (List.sort (fun (a : History.op) b -> Int.compare a.id b.id) ops);
  { ryw_violations = !ryw; monotonic_violations = !monotonic }
