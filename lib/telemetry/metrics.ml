module Histogram = Dq_util.Histogram

(* Default latency buckets (ms): spans sub-RTT local hits up to the
   retry/backoff tail. *)
let latency_buckets = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ]

(* Per-label accounting lives in one cell, whichever mix of counters the
   label needs. *)
type cell = { mutable c_remote : int; mutable c_local : int; mutable c_bytes : int }

(* Counters by name. Message labels and event names are string
   literals, so a physical-equality scan over the names in the order
   they first appeared finds a counter without hashing the string; a
   name not seen in that form falls back to the table. The table alone
   is the contents: the scan list only holds each name's first copy. *)
type 'a named = { by_name : (string, 'a) Hashtbl.t; mutable first_seen : (string * 'a) list }

type t = {
  mutable remote : int;
  mutable local : int;
  mutable bytes : int;
  labels : cell named;
  events : int ref named;
  read_latency : Histogram.t;
  write_latency : Histogram.t;
}

let named size = { by_name = Hashtbl.create size; first_seen = [] }

let create () =
  {
    remote = 0;
    local = 0;
    bytes = 0;
    labels = named 16;
    events = named 32;
    read_latency = Histogram.create ~buckets:latency_buckets;
    write_latency = Histogram.create ~buckets:latency_buckets;
  }

let lookup named name ~fresh =
  let rec scan = function
    | (seen, v) :: rest -> if seen == name then v else scan rest
    | [] -> (
      match Hashtbl.find_opt named.by_name name with
      | Some v -> v
      | None ->
        let v = fresh () in
        Hashtbl.add named.by_name name v;
        named.first_seen <- named.first_seen @ [ (name, v) ];
        v)
  in
  scan named.first_seen

let reset_named named =
  Hashtbl.reset named.by_name;
  named.first_seen <- []

let bump named name = incr (lookup named name ~fresh:(fun () -> ref 0))

let fresh_cell () = { c_remote = 0; c_local = 0; c_bytes = 0 }

let record_msg t ~label ~local ?(bytes = 0) () =
  let c = lookup t.labels label ~fresh:fresh_cell in
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

let sorted named =
  Hashtbl.fold (fun label r acc -> (label, !r) :: acc) named.by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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

let event_counts t = sorted t.events

let event_count t name =
  match Hashtbl.find_opt t.events.by_name name with Some r -> !r | None -> 0

let read_latency t = t.read_latency

let write_latency t = t.write_latency

let reset t =
  t.remote <- 0;
  t.local <- 0;
  t.bytes <- 0;
  reset_named t.labels;
  reset_named t.events

(* The bus-facing aggregator: counts every event by kind, mirrors
   message accounting, and feeds operation latencies into the
   histograms. *)
let sink t : Bus.sink =
 fun ~time_ms:_ ev ->
  bump t.events (Event.name ev);
  match ev with
  | Event.Msg_sent { label; bytes; local; _ } -> record_msg t ~label ~local ~bytes ()
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
