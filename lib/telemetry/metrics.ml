module Histogram = Dq_util.Histogram

(* Default latency buckets (ms): spans sub-RTT local hits up to the
   retry/backoff tail. *)
let latency_buckets = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ]

(* Per-label accounting lives in one cell, whichever mix of counters the
   label needs. *)
type cell = { mutable c_remote : int; mutable c_local : int; mutable c_bytes : int }

(* Cells by label. Message labels are string literals, so a
   physical-equality scan over the labels in the order they first
   appeared finds a cell without hashing the string; a label not seen
   in that form falls back to the table. The table alone is the
   contents: the scan list only holds each label's first copy. *)
type labels = { by_name : (string, cell) Hashtbl.t; mutable first_seen : (string * cell) list }

type t = {
  mutable remote : int;
  mutable local : int;
  mutable bytes : int;
  labels : labels;
  events : int array; (* by [Event.kind] *)
  read_latency : Histogram.t;
  write_latency : Histogram.t;
}

let create () =
  {
    remote = 0;
    local = 0;
    bytes = 0;
    labels = { by_name = Hashtbl.create 16; first_seen = [] };
    events = Array.make Event.kinds 0;
    read_latency = Histogram.create ~buckets:latency_buckets;
    write_latency = Histogram.create ~buckets:latency_buckets;
  }

let rec scan labels label = function
  | (seen, c) :: rest -> if seen == label then c else scan labels label rest
  | [] -> (
    match Hashtbl.find_opt labels.by_name label with
    | Some c -> c
    | None ->
      let c = { c_remote = 0; c_local = 0; c_bytes = 0 } in
      Hashtbl.add labels.by_name label c;
      labels.first_seen <- labels.first_seen @ [ (label, c) ];
      c)

let record_msg t ~label ~local ~bytes =
  let c = scan t.labels label t.labels.first_seen in
  if local then begin
    t.local <- t.local + 1;
    c.c_local <- c.c_local + 1
  end
  else begin
    t.remote <- t.remote + 1;
    t.bytes <- t.bytes + bytes;
    c.c_remote <- c.c_remote + 1;
    c.c_bytes <- c.c_bytes + bytes
  end

let record_latency t ~kind latency_ms =
  match kind with
  | "read" -> Histogram.add t.read_latency latency_ms
  | "write" -> Histogram.add t.write_latency latency_ms
  | _ -> ()

let total t = t.remote + t.local

let remote_total t = t.remote

let local_total t = t.local

let remote_bytes t = t.bytes

(* Project one counter out of the label cells, dropping labels the
   counter never saw (a label with only local deliveries must not show
   up in the remote-only table, and vice versa). *)
let sorted_cells t value =
  Hashtbl.fold
    (fun label c acc ->
      let v = value c in
      if v > 0 then (label, v) :: acc else acc)
    t.labels.by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_label ?(include_local = false) t =
  if include_local then sorted_cells t (fun c -> c.c_remote + c.c_local)
  else sorted_cells t (fun c -> c.c_remote)

let local_by_label t = sorted_cells t (fun c -> c.c_local)

(* Byte totals for every label that sent at least one remote message,
   zero-byte labels included (matching the message table's rows). *)
let bytes_by_label t =
  Hashtbl.fold
    (fun label c acc -> if c.c_remote > 0 then (label, c.c_bytes) :: acc else acc)
    t.labels.by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let event_counts t =
  let seen = ref [] in
  Array.iteri
    (fun k n -> if n > 0 then seen := (Event.kind_name k, n) :: !seen)
    t.events;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !seen

let event_count t name =
  let rec find k =
    if k = Event.kinds then 0
    else if String.equal (Event.kind_name k) name then t.events.(k)
    else find (k + 1)
  in
  find 0

let read_latency t = t.read_latency

let write_latency t = t.write_latency

let reset t =
  t.remote <- 0;
  t.local <- 0;
  t.bytes <- 0;
  Hashtbl.reset t.labels.by_name;
  t.labels.first_seen <- [];
  Array.fill t.events 0 Event.kinds 0

(* The bus-facing aggregator: counts every event by kind index, mirrors
   message accounting, and feeds operation latencies into the
   histograms. *)
let sink t : Bus.sink =
 fun ~time_ms:_ ev ->
  let k = Event.kind ev in
  t.events.(k) <- t.events.(k) + 1;
  match ev with
  | Event.Msg_sent { label; bytes; local; _ } -> record_msg t ~label ~local ~bytes
  | Event.Op_complete { kind; latency_ms; _ } -> record_latency t ~kind latency_ms
  | _ -> ()

let pp ppf t =
  Format.fprintf ppf "@[<v>remote=%d local=%d" t.remote t.local;
  List.iter (fun (label, n) -> Format.fprintf ppf "@,  %s: %d" label n) (by_label t);
  Format.fprintf ppf "@]"

(* {2 JSON rendering (hand-rolled, no external dependencies)} *)

let json_counts buf name counts =
  Buffer.add_string buf "  ";
  Json_util.counts buf name counts

let json_histogram buf name h =
  Buffer.add_string buf "  ";
  Json_util.histogram buf name h

let to_json ?aoi t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.ksprintf (Buffer.add_string buf)
    "  \"remote_messages\": %d,\n  \"local_messages\": %d,\n  \"remote_bytes\": %d,\n"
    t.remote t.local t.bytes;
  json_counts buf "messages_by_label" (by_label t);
  Buffer.add_string buf ",\n";
  json_counts buf "bytes_by_label" (bytes_by_label t);
  Buffer.add_string buf ",\n";
  json_counts buf "local_messages_by_label" (local_by_label t);
  Buffer.add_string buf ",\n";
  json_counts buf "events" (event_counts t);
  Buffer.add_string buf ",\n";
  json_histogram buf "read_latency_ms" t.read_latency;
  Buffer.add_string buf ",\n";
  json_histogram buf "write_latency_ms" t.write_latency;
  (match aoi with
  | None -> ()
  | Some a ->
    Buffer.add_string buf ",\n  \"aoi\": ";
    Buffer.add_string buf (Aoi.to_json a));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
