(* The quadratic reference implementations of [Regular_checker.check],
   [Regular_checker.new_old_inversions], [Staleness.measure] and
   [Staleness.measure_age]: each read scans its key's writes (and each
   read pair is tried). Kept only as a test oracle for the indexed
   versions in lib/, which must return structurally equal reports. *)

open Dq_storage
module History = Dq_harness.History
module Regular_checker = Dq_harness.Regular_checker
module Staleness = Dq_harness.Staleness

(* Does write [w] overlap read [r] in real time? A write without a
   response is concurrent with everything after its invocation. *)
let concurrent (w : History.op) (r : History.op) =
  match r.responded with
  | None -> false (* incomplete reads are not checked *)
  | Some r_end -> (
    w.invoked < r_end
    && match w.responded with None -> true | Some w_end -> w_end > r.invoked)

(* The completed write with the highest logical clock among those that
   responded before the read began. *)
let freshest_completed_before (writes : History.op list) (r : History.op) =
  List.fold_left
    (fun best (w : History.op) ->
      match w.responded, w.lc with
      | Some w_end, Some w_lc when w_end <= r.invoked -> (
        match best with
        | Some (_, best_lc) when Lc.(best_lc >= w_lc) -> best
        | Some _ | None -> Some (w, w_lc))
      | _ -> best)
    None writes

let check_read ~writes ~by_value (r : History.op) =
  let freshest = freshest_completed_before writes r in
  let expected_lc = match freshest with Some (_, lc) -> lc | None -> Lc.zero in
  let fail ?returned_write reason =
    Some { Regular_checker.read = r; returned_write; expected_lc; reason }
  in
  if r.value = "" then
    (* The initial value: legal iff no write had completed before the
       read began (a concurrent write's pre-state is the initial value
       only in that case too). *)
    match freshest with
    | None -> None
    | Some (w, lc) ->
      fail ~returned_write:w
        (Format.asprintf "read returned the initial value after write lc=%a completed" Lc.pp lc)
  else
    match Hashtbl.find_opt by_value r.value with
    | None -> fail "read returned a value never written to this key"
    | Some (w : History.op) ->
      let is_freshest =
        match freshest, w.lc with
        | Some (fw, _), _ -> fw.id = w.id
        | None, _ -> false
      in
      if is_freshest || concurrent w r then None
      else
        fail ~returned_write:w
          (Format.asprintf
             "stale read: returned write lc=%s but the freshest completed write has lc=%a"
             (match w.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "?")
             Lc.pp expected_lc)

let check ops =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (op : History.op) ->
      match op.kind with
      | History.Write ->
        let writes =
          match Hashtbl.find_opt by_key op.key with
          | Some w -> w
          | None ->
            let w = (ref [], Hashtbl.create 64) in
            Hashtbl.add by_key op.key w;
            w
        in
        let list, by_value = writes in
        list := op :: !list;
        Hashtbl.replace by_value op.value op
      | History.Read -> ())
    ops;
  let reads = List.filter (fun (op : History.op) -> op.kind = History.Read) ops in
  let completed =
    List.filter (fun (op : History.op) -> Option.is_some op.responded) reads
  in
  let violations =
    List.filter_map
      (fun r ->
        let writes, by_value =
          match Hashtbl.find_opt by_key r.History.key with
          | Some (list, by_value) -> (!list, by_value)
          | None -> ([], Hashtbl.create 1)
        in
        check_read ~writes ~by_value r)
      completed
  in
  { Regular_checker.reads = List.length reads; checked = List.length completed; violations }

let new_old_inversions ops =
  (* Group completed reads by key, sort by response time, and flag any
     later (non-overlapping) read that observed an older logical clock. *)
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Read, Some _, Some _ ->
        let reads =
          match Hashtbl.find_opt by_key op.key with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add by_key op.key r;
            r
        in
        reads := op :: !reads
      | _ -> ())
    ops;
  Hashtbl.fold
    (fun _ reads acc ->
      let sorted =
        List.sort
          (fun (a : History.op) (b : History.op) ->
            Option.compare Float.compare a.responded b.responded)
          !reads
      in
      (* Quadratic pairwise scan; histories are experiment-sized. *)
      let acc = ref acc in
      List.iteri
        (fun i (second : History.op) ->
          List.iteri
            (fun j (first : History.op) ->
              if j < i then
                match first.responded, first.lc, second.lc with
                | Some first_end, Some first_lc, Some second_lc
                  when first_end <= second.invoked && Lc.(second_lc < first_lc) ->
                  acc :=
                    {
                      Regular_checker.first_read = first;
                      second_read = second;
                      first_lc;
                      second_lc;
                    }
                    :: !acc
                | _ -> ())
            sorted)
        sorted;
      !acc)
    by_key []
  |> List.sort (fun (a : Regular_checker.inversion) (b : Regular_checker.inversion) ->
         match Int.compare a.first_read.History.id b.first_read.History.id with
         | 0 -> Int.compare a.second_read.History.id b.second_read.History.id
         | c -> c)

(* Completed writes on one key, sorted by logical clock. *)
let completed_writes ops key =
  List.filter_map
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Write, Some ended, Some lc when Key.equal op.key key -> Some (lc, ended)
      | _ -> None)
    ops
  |> List.sort (fun (a, _) (b, _) -> Lc.compare a b)

let examine ~writes (r : History.op) =
  match r.responded, r.lc with
  | Some r_end, Some r_lc ->
    (* Writes that completed before the read finished and supersede the
       value it returned. *)
    let missed =
      List.filter (fun (w_lc, w_end) -> Lc.(w_lc > r_lc) && w_end <= r.invoked) writes
    in
    (match missed with
    | [] -> None
    | _ ->
      let latest_end =
        List.fold_left (fun acc (_, w_end) -> Float.max acc w_end) neg_infinity missed
      in
      Some
        {
          Staleness.read = r;
          behind_ms = r_end -. latest_end;
          versions_behind = List.length missed;
        })
  | _ -> None

let measure ops =
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (op : History.op) ->
      if not (Hashtbl.mem keys op.key) then Hashtbl.add keys op.key (completed_writes ops op.key))
    ops;
  let reads =
    List.filter
      (fun (op : History.op) ->
        op.kind = History.Read && Option.is_some op.responded)
      ops
  in
  let stale =
    List.filter_map
      (fun r ->
        let writes = Option.value (Hashtbl.find_opt keys r.History.key) ~default:[] in
        examine ~writes r)
      reads
  in
  let max_behind_ms =
    List.fold_left (fun acc (s : Staleness.stale_read) -> Float.max acc s.behind_ms) 0. stale
  in
  let mean_behind_ms =
    match stale with
    | [] -> 0.
    | _ ->
      List.fold_left (fun acc (s : Staleness.stale_read) -> acc +. s.behind_ms) 0. stale
      /. float_of_int (List.length stale)
  in
  let max_versions_behind =
    List.fold_left
      (fun acc (s : Staleness.stale_read) -> Stdlib.max acc s.versions_behind)
      0 stale
  in
  {
    Staleness.checked = List.length reads;
    stale;
    max_behind_ms;
    mean_behind_ms;
    max_versions_behind;
  }

let measure_age ops =
  let keys = Hashtbl.create 16 in
  let writes_for key =
    match Hashtbl.find_opt keys key with
    | Some ws -> ws
    | None ->
      let ws = completed_writes ops key in
      Hashtbl.add keys key ws;
      ws
  in
  let reads = ref 0 in
  let sum = ref 0. in
  let max_age = ref 0. in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded with
      | History.Read, Some r_end ->
        incr reads;
        let age =
          match op.lc with
          | None -> 0.
          | Some r_lc ->
            (match
               List.find_opt (fun (w_lc, _) -> Lc.equal w_lc r_lc) (writes_for op.key)
             with
            | Some (_, w_end) when w_end <= r_end -> r_end -. w_end
            | _ -> 0.)
        in
        sum := !sum +. age;
        if age > !max_age then max_age := age
      | _ -> ())
    ops;
  {
    Staleness.reads = !reads;
    mean_age_ms = (if !reads = 0 then 0. else !sum /. float_of_int !reads);
    max_age_ms = !max_age;
  }
