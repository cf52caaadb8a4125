module Histogram = Dq_util.Histogram

(* Default buckets (ms) for age / staleness distributions: freshness on
   the paper's topology ranges from sub-RTT (local read of a value just
   written through the IQS) up to anti-entropy periods in the seconds. *)
let age_buckets = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. ]

let versions_buckets = [ 1.; 2.; 3.; 5.; 10.; 20. ]

(* Per-key completed-write log and the AoI saw-tooth accumulator.
   [writes] is kept in descending (lc_count, lc_node) order: reads
   mostly return a near-freshest version, so the "writes that supersede
   what this read returned" scan touches a short prefix. *)
type key_state = {
  mutable writes : (int * int * float) list; (* (lc_count, lc_node, end_ms), desc *)
  mutable fresh_count : int;
  mutable fresh_node : int;
  mutable fresh_end : float; (* completion time of the freshest version *)
  mutable first_write : float; (* start of this key's AoI process *)
  mutable area : float; (* integral of age dt up to [fresh_end] *)
  mutable peak : float; (* peak age up to [fresh_end] *)
}

type t = {
  keys : (string, key_state) Hashtbl.t;
  read_age : Histogram.t;
  behind : Histogram.t;
  versions_behind : Histogram.t;
  mutable reads_checked : int;
  mutable stale_reads : int;
  mutable behind_sum : float;
  mutable max_behind : float;
  mutable max_versions_behind : int;
  mutable age_sum : float;
  mutable max_read_age : float;
  mutable last_ms : float; (* latest event stamp seen *)
}

let create () =
  {
    keys = Hashtbl.create 64;
    read_age = Histogram.create ~buckets:age_buckets;
    behind = Histogram.create ~buckets:age_buckets;
    versions_behind = Histogram.create ~buckets:versions_buckets;
    reads_checked = 0;
    stale_reads = 0;
    behind_sum = 0.;
    max_behind = 0.;
    max_versions_behind = 0;
    age_sum = 0.;
    max_read_age = 0.;
    last_ms = 0.;
  }

(* Lexicographic (count, node) order — [Dq_storage.Lc.compare] without
   the dependency on the storage library. *)
let lc_gt (c1 : int) (n1 : int) c2 n2 = c1 > c2 || (c1 = c2 && n1 > n2)

let lc_eq (c1 : int) (n1 : int) c2 n2 = c1 = c2 && n1 = n2

let state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
    let s =
      {
        writes = [];
        fresh_count = 0;
        fresh_node = 0;
        fresh_end = nan;
        first_write = nan;
        area = 0.;
        peak = 0.;
      }
    in
    Hashtbl.add t.keys key s;
    s

let insert_write s lc_count lc_node end_ms =
  let rec go = function
    | [] -> [ (lc_count, lc_node, end_ms) ]
    | ((c, n, _) as hd) :: tl ->
      if lc_gt lc_count lc_node c n then (lc_count, lc_node, end_ms) :: hd :: tl
      else hd :: go tl
  in
  s.writes <- go s.writes

(* A write completed: it joins the key's completed-write log, and —
   when it carries a fresher version than anything seen — advances the
   AoI saw-tooth: the age of the key's freshest content grew linearly
   from 0 since [fresh_end], so the elapsed gap contributes gap^2/2 of
   area and a gap-sized peak candidate, then resets to 0. A late
   completion of an already-superseded version changes neither. *)
let on_write t ~key ~lc_count ~lc_node ~now =
  let s = state t key in
  insert_write s lc_count lc_node now;
  if Float.is_nan s.first_write then begin
    s.first_write <- now;
    s.fresh_count <- lc_count;
    s.fresh_node <- lc_node;
    s.fresh_end <- now
  end
  else if lc_gt lc_count lc_node s.fresh_count s.fresh_node then begin
    let gap = now -. s.fresh_end in
    s.area <- s.area +. (gap *. gap /. 2.);
    if gap > s.peak then s.peak <- gap;
    s.fresh_count <- lc_count;
    s.fresh_node <- lc_node;
    s.fresh_end <- now
  end

(* A read completed: record the instantaneous age of the value it
   returned (time since that version's write completed; 0 when the
   version is fresher than any completed write — e.g. the write's own
   response is still in flight — or is the initial value), and the
   staleness of the read exactly as the offline oracle defines it:
   completed writes that {e supersede} the returned version and had
   already finished before the read was invoked. Events arrive in
   virtual-time order, so every such write is already in [writes]. *)
let on_read t ~key ~lc_count ~lc_node ~start_ms ~now =
  t.reads_checked <- t.reads_checked + 1;
  let age, missed, latest_missed_end =
    match Hashtbl.find_opt t.keys key with
    | None -> (0., 0, neg_infinity)
    | Some s ->
      let rec scan ws (age, missed, latest) =
        match ws with
        | [] -> (age, missed, latest)
        | (c, n, end_ms) :: tl ->
          if lc_gt c n lc_count lc_node then
            let acc =
              if end_ms <= start_ms then (age, missed + 1, Float.max latest end_ms)
              else (age, missed, latest)
            in
            scan tl acc
          else if lc_eq c n lc_count lc_node then (now -. end_ms, missed, latest)
          else (age, missed, latest)
      in
      scan s.writes (0., 0, neg_infinity)
  in
  let age = Float.max 0. age in
  t.age_sum <- t.age_sum +. age;
  if age > t.max_read_age then t.max_read_age <- age;
  Histogram.add t.read_age age;
  if missed > 0 then begin
    t.stale_reads <- t.stale_reads + 1;
    let behind = now -. latest_missed_end in
    t.behind_sum <- t.behind_sum +. behind;
    if behind > t.max_behind then t.max_behind <- behind;
    if missed > t.max_versions_behind then t.max_versions_behind <- missed;
    Histogram.add t.behind behind;
    Histogram.add t.versions_behind (float_of_int missed)
  end

let sink t : Bus.sink =
 fun ~time_ms ev ->
  if time_ms > t.last_ms then t.last_ms <- time_ms;
  match ev with
  | Event.Op_served { kind = "write"; key; lc_count; lc_node; _ } ->
    on_write t ~key ~lc_count ~lc_node ~now:time_ms
  | Event.Op_served { kind = "read"; key; lc_count; lc_node; start_ms; _ } ->
    on_read t ~key ~lc_count ~lc_node ~start_ms ~now:time_ms
  | _ -> ()

(* {2 Summaries} *)

type summary = {
  keys_tracked : int;
  reads_checked : int;
  stale_reads : int;
  stale_fraction : float;
  mean_behind_ms : float;
  max_behind_ms : float;
  max_versions_behind : int;
  mean_read_age_ms : float;
  max_read_age_ms : float;
  time_avg_age_ms : float;
  peak_age_ms : float;
}

(* Closing the saw-tooth: each key's process runs from its first write
   to [now] (default: the last event seen); the trailing open segment
   contributes its triangle of area and a final peak candidate. Pure —
   [summary] can be taken repeatedly, mid-run or after. *)
let summary ?now t =
  let now = match now with Some n -> n | None -> t.last_ms in
  let area, span, peak =
    Hashtbl.fold
      (fun _ s (area, span, peak) ->
        if Float.is_nan s.first_write then (area, span, peak)
        else begin
          let tail = Float.max 0. (now -. s.fresh_end) in
          ( area +. s.area +. (tail *. tail /. 2.),
            span +. Float.max 0. (now -. s.first_write),
            Float.max peak (Float.max s.peak tail) )
        end)
      t.keys (0., 0., 0.)
  in
  {
    keys_tracked = Hashtbl.length t.keys;
    reads_checked = t.reads_checked;
    stale_reads = t.stale_reads;
    stale_fraction =
      (if t.reads_checked = 0 then 0.
       else float_of_int t.stale_reads /. float_of_int t.reads_checked);
    mean_behind_ms =
      (if t.stale_reads = 0 then 0. else t.behind_sum /. float_of_int t.stale_reads);
    max_behind_ms = t.max_behind;
    max_versions_behind = t.max_versions_behind;
    mean_read_age_ms =
      (if t.reads_checked = 0 then 0. else t.age_sum /. float_of_int t.reads_checked);
    max_read_age_ms = t.max_read_age;
    time_avg_age_ms = (if span <= 0. then 0. else area /. span);
    peak_age_ms = peak;
  }

let read_age_histogram t = t.read_age

let behind_histogram t = t.behind

let to_json ?now t =
  let s = summary ?now t in
  let buf = Buffer.create 512 in
  let n = Json_util.num in
  Buffer.add_string buf "{\n";
  Printf.ksprintf (Buffer.add_string buf)
    "    \"keys\": %d,\n    \"reads_checked\": %d,\n    \"stale_reads\": %d,\n\
    \    \"stale_fraction\": %s,\n    \"mean_behind_ms\": %s,\n    \"max_behind_ms\": %s,\n\
    \    \"max_versions_behind\": %d,\n    \"mean_read_age_ms\": %s,\n\
    \    \"max_read_age_ms\": %s,\n    \"time_avg_age_ms\": %s,\n    \"peak_age_ms\": %s,\n\
    \    "
    s.keys_tracked s.reads_checked s.stale_reads
    (n s.stale_fraction) (n s.mean_behind_ms) (n s.max_behind_ms)
    s.max_versions_behind
    (n s.mean_read_age_ms) (n s.max_read_age_ms) (n s.time_avg_age_ms) (n s.peak_age_ms);
  Json_util.histogram buf "read_age_ms" t.read_age;
  Buffer.add_string buf ",\n    ";
  Json_util.histogram buf "behind_ms" t.behind;
  Buffer.add_string buf ",\n    ";
  Json_util.histogram buf "versions_behind" t.versions_behind;
  Buffer.add_string buf "\n  }";
  Buffer.contents buf
