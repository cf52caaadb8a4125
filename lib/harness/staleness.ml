open Dq_storage

type stale_read = { read : History.op; behind_ms : float; versions_behind : int }

type report = {
  checked : int;
  stale : stale_read list;
  max_behind_ms : float;
  mean_behind_ms : float;
  max_versions_behind : int;
}

(* Clock ranks of one key's completed writes, largest clock first:
   [rank.(i)] is 1 + the number of distinct clocks above [lcs.(i)], and
   [desc.(g - 1)] is the [g]-th largest distinct clock. *)
let clock_ranks (kw : Write_index.key_writes) =
  let n = Array.length kw.lcs in
  let rank = Array.make n 0 and desc = Array.make n Lc.zero in
  let distinct = ref 0 in
  let by_lc = Write_index.by_lc kw in
  for j = n - 1 downto 0 do
    let lc = kw.lcs.(by_lc.(j)) in
    if !distinct = 0 || not (Lc.equal lc desc.(!distinct - 1)) then begin
      desc.(!distinct) <- lc;
      incr distinct
    end;
    rank.(by_lc.(j)) <- !distinct
  done;
  (rank, Array.sub desc 0 !distinct)

(* Sweep one key's reads ([slots] into [reads], all completed and
   carrying a clock) in invocation order against its writes in response
   order. A Fenwick tree over clock ranks holds, for the writes that
   responded by the read's invocation, prefix counts and prefix maxima of
   their response times; the prefix of ranks above the read's clock is
   what the read missed. Results land in the read's slot. *)
let sweep (kw : Write_index.key_writes) reads slots ~versions ~latest_end =
  let rank, desc = clock_ranks kw in
  let m = Array.length desc in
  let count = Array.make (m + 1) 0 and latest = Array.make (m + 1) neg_infinity in
  let insert p w_end =
    let p = ref p in
    while !p <= m do
      count.(!p) <- count.(!p) + 1;
      latest.(!p) <- Float.max latest.(!p) w_end;
      p := !p + (!p land - !p)
    done
  in
  Array.stable_sort
    (fun a b -> Float.compare reads.(a).History.invoked reads.(b).History.invoked)
    slots;
  let next = ref 0 in
  Array.iter
    (fun slot ->
      let (r : History.op) = reads.(slot) in
      while !next < Array.length kw.by_end && kw.sorted_ends.(!next) <= r.invoked do
        insert rank.(kw.by_end.(!next)) kw.sorted_ends.(!next);
        incr next
      done;
      match r.lc with
      | Some r_lc ->
        (* ranks 1 .. g hold the clocks above the read's *)
        let g = ref (Write_index.partition_point m (fun k -> Lc.(desc.(k) > r_lc))) in
        while !g > 0 do
          versions.(slot) <- versions.(slot) + count.(!g);
          latest_end.(slot) <- Float.max latest_end.(slot) latest.(!g);
          g := !g - (!g land - !g)
        done
      | None -> ())
    slots

let measure ops =
  let index = Write_index.build ops in
  let reads =
    Array.of_list
      (List.filter
         (fun (op : History.op) ->
           match op.kind, op.responded with
           | History.Read, Some _ -> true
           | _ -> false)
         ops)
  in
  (* Per key, the slots of the reads that carry a clock. *)
  let slots = Hashtbl.create 16 in
  Array.iteri
    (fun slot (r : History.op) ->
      match r.lc, Hashtbl.find_opt slots r.key with
      | None, _ -> ()
      | Some _, Some key_slots -> key_slots := slot :: !key_slots
      | Some _, None -> Hashtbl.add slots r.key (ref [ slot ]))
    reads;
  let versions = Array.make (Array.length reads) 0 in
  let latest_end = Array.make (Array.length reads) neg_infinity in
  (* Each key's sweep only fills its own reads' slots. *)
  Hashtbl.iter
    (fun key key_slots ->
      match Hashtbl.find_opt index key with
      | Some kw -> sweep kw reads (Array.of_list !key_slots) ~versions ~latest_end
      | None -> ())
    slots;
  let stale = ref [] in
  for slot = Array.length reads - 1 downto 0 do
    match reads.(slot).responded with
    | Some r_end when versions.(slot) > 0 ->
      stale :=
        {
          read = reads.(slot);
          behind_ms = r_end -. latest_end.(slot);
          versions_behind = versions.(slot);
        }
        :: !stale
    | _ -> ()
  done;
  let stale = !stale in
  let max_behind_ms = List.fold_left (fun acc s -> Float.max acc s.behind_ms) 0. stale in
  let mean_behind_ms =
    match stale with
    | [] -> 0.
    | _ ->
      List.fold_left (fun acc s -> acc +. s.behind_ms) 0. stale
      /. float_of_int (List.length stale)
  in
  let max_versions_behind =
    List.fold_left (fun acc s -> Stdlib.max acc s.versions_behind) 0 stale
  in
  { checked = Array.length reads; stale; max_behind_ms; mean_behind_ms; max_versions_behind }

type age_report = { reads : int; mean_age_ms : float; max_age_ms : float }

(* The offline twin of the online sink's read-age metric: for each
   completed read, the time since the write that produced the returned
   version completed — 0 when that write's own response was still in
   flight (or the value is the initial one), matching the online
   definition where only already-completed writes are visible. A clock
   written twice resolves to its first completed write in input
   order. *)
let measure_age ops =
  let index = Write_index.build ops in
  let lc_orders = Hashtbl.create 16 in
  (* The response time of the first completed write of [key] with clock
     [lc], found by binary search in the key's clock order. *)
  let write_end key lc =
    match Hashtbl.find_opt index key with
    | None -> None
    | Some (kw : Write_index.key_writes) ->
      let by_lc =
        match Hashtbl.find_opt lc_orders key with
        | Some by_lc -> by_lc
        | None ->
          let by_lc = Write_index.by_lc kw in
          Hashtbl.add lc_orders key by_lc;
          by_lc
      in
      let j =
        Write_index.partition_point (Array.length by_lc) (fun j -> Lc.(kw.lcs.(by_lc.(j)) < lc))
      in
      if j < Array.length by_lc && Lc.equal kw.lcs.(by_lc.(j)) lc then Some kw.ends.(by_lc.(j))
      else None
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
          | Some r_lc -> (
            match write_end op.key r_lc with
            | Some w_end when w_end <= r_end -> r_end -. w_end
            | _ -> 0.)
        in
        sum := !sum +. age;
        if age > !max_age then max_age := age
      | _ -> ())
    ops;
  {
    reads = !reads;
    mean_age_ms = (if !reads = 0 then 0. else !sum /. float_of_int !reads);
    max_age_ms = !max_age;
  }

let stale_fraction report =
  if report.checked = 0 then 0.
  else float_of_int (List.length report.stale) /. float_of_int report.checked

let pp ppf report =
  Format.fprintf ppf "checked=%d stale=%d (%.1f%%) behind mean=%.0fms max=%.0fms versions<=%d"
    report.checked (List.length report.stale)
    (100. *. stale_fraction report)
    report.mean_behind_ms report.max_behind_ms report.max_versions_behind
