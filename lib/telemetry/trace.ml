(* Chrome trace_event JSON (the format Perfetto / chrome://tracing
   load). Reference: the "Trace Event Format" document — we emit the
   JSON-object form {"traceEvents": [...]} with instant events
   (ph "i", thread-scoped), complete events (ph "X", for operations
   with a known duration) and span begin/end pairs (ph "B"/"E").
   Timestamps are microseconds, so virtual milliseconds scale by
   1000. *)

module J = Json_util

type t = { buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }

let add_record t json =
  if t.count > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_string t.buf "  ";
  Buffer.add_string t.buf json;
  t.count <- t.count + 1

let set_process_name t ~pid name =
  add_record t
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"%s"}}|} pid
       (J.escape name))

(* Per-event display name and args payload. Message and fault events
   surface their protocol label as the Perfetto row name; everything
   else uses the stable kind slug. *)
let name_and_args (ev : Event.t) =
  let open Printf in
  match ev with
  | Msg_sent { src; dst; label; bytes; local } ->
    ( sprintf "send %s" (J.escape label),
      sprintf {|{"src":%d,"dst":%d,"bytes":%d,"local":%b}|} src dst bytes local )
  | Msg_delivered { src; dst; label } ->
    (sprintf "recv %s" (J.escape label), sprintf {|{"src":%d,"dst":%d}|} src dst)
  | Msg_dropped { src; dst; label; reason } ->
    ( sprintf "drop %s" (J.escape label),
      sprintf {|{"src":%d,"dst":%d,"reason":"%s"}|} src dst (J.escape reason) )
  | Op_start { op; client; kind; key } ->
    ( sprintf "%s start" (J.escape kind),
      sprintf {|{"op":%d,"client":%d,"key":"%s"}|} op client (J.escape key) )
  | Op_complete { op; client; kind; latency_ms; _ } ->
    ( J.escape kind,
      sprintf {|{"op":%d,"client":%d,"latency_ms":%s}|} op client (J.num latency_ms) )
  | Op_served { op; client; kind; key; lc_count; lc_node; _ } ->
    ( sprintf "%s served" (J.escape kind),
      sprintf {|{"op":%d,"client":%d,"key":"%s","lc":"%d.%d"}|} op client (J.escape key)
        lc_count lc_node )
  | Op_timeout { op; client; kind } ->
    (sprintf "%s timeout" (J.escape kind), sprintf {|{"op":%d,"client":%d}|} op client)
  | Op_give_up { op; client; kind } ->
    (sprintf "%s give-up" (J.escape kind), sprintf {|{"op":%d,"client":%d}|} op client)
  | Lease_granted { node; peer; volume; lease_ms; epoch } ->
    ( "lease_granted",
      sprintf {|{"node":%d,"peer":%d,"volume":%d,"lease_ms":%s,"epoch":%d}|} node peer
        volume (J.num lease_ms) epoch )
  | Lease_expired { node; peer; volume } ->
    ("lease_expired", sprintf {|{"node":%d,"peer":%d,"volume":%d}|} node peer volume)
  | Inval_through { node; peer; key } ->
    ("inval_through", sprintf {|{"node":%d,"peer":%d,"key":"%s"}|} node peer (J.escape key))
  | Inval_suppressed { node; key } ->
    ("inval_suppressed", sprintf {|{"node":%d,"key":"%s"}|} node (J.escape key))
  | Inval_delayed { node; peer; key } ->
    ("inval_delayed", sprintf {|{"node":%d,"peer":%d,"key":"%s"}|} node peer (J.escape key))
  | Epoch_advance { node; peer; volume; epoch } ->
    ( "epoch_advance",
      sprintf {|{"node":%d,"peer":%d,"volume":%d,"epoch":%d}|} node peer volume epoch )
  | Cache_read { node; key; hit } ->
    ( (if hit then "read hit" else "read miss"),
      sprintf {|{"node":%d,"key":"%s"}|} node (J.escape key) )
  | Rpc_round { node; tag; round } ->
    (sprintf "%s round" (J.escape tag), sprintf {|{"node":%d,"round":%d}|} node round)
  | Rpc_give_up { node; tag; rounds } ->
    (sprintf "%s give-up" (J.escape tag), sprintf {|{"node":%d,"rounds":%d}|} node rounds)
  | Link_cut { src; dst } -> ("link_cut", sprintf {|{"src":%d,"dst":%d}|} src dst)
  | Link_uncut { src; dst } -> ("link_uncut", sprintf {|{"src":%d,"dst":%d}|} src dst)
  | Node_crash { node } -> ("node_crash", sprintf {|{"node":%d}|} node)
  | Node_wipe { node } -> ("node_wipe", sprintf {|{"node":%d}|} node)
  | Node_recover { node } -> ("node_recover", sprintf {|{"node":%d}|} node)
  | Recovery_start { node } -> ("recovery_start", sprintf {|{"node":%d}|} node)
  | Recovery_done { node; bytes; objects; duration_ms } ->
    ( "recovery_done",
      sprintf {|{"node":%d,"bytes":%d,"objects":%d,"duration_ms":%s}|} node bytes objects
        (J.num duration_ms) )
  | Fault_injected { label } -> (J.escape label, {|{}|})
  | Clock_skew { node; skew } ->
    ("clock_skew", sprintf {|{"node":%d,"skew":%s}|} node (J.num skew))
  | Span_begin { name; node } -> (J.escape name, sprintf {|{"node":%d}|} node)
  | Span_end { name; node } -> (J.escape name, sprintf {|{"node":%d}|} node)
  | Note { src; msg } ->
    (sprintf "note %s" (J.escape src), sprintf {|{"msg":"%s"}|} (J.escape (Lazy.force msg)))

let record ?(pid = 0) t ~time_ms ev =
  let name, args = name_and_args ev in
  let cat = Event.cat ev in
  let tid = Event.track ev in
  let ts = time_ms *. 1000. in
  let json =
    match ev with
    | Event.Op_complete { start_ms; latency_ms; _ } ->
      (* A complete event spanning the operation's lifetime. *)
      Printf.sprintf
        {|{"name":"%s","cat":"%s","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":%s}|}
        name cat
        (J.num (start_ms *. 1000.))
        (J.num (latency_ms *. 1000.))
        pid tid args
    | Event.Span_begin _ ->
      Printf.sprintf {|{"name":"%s","cat":"%s","ph":"B","ts":%s,"pid":%d,"tid":%d,"args":%s}|}
        name cat (J.num ts) pid tid args
    | Event.Span_end _ ->
      Printf.sprintf {|{"name":"%s","cat":"%s","ph":"E","ts":%s,"pid":%d,"tid":%d}|} name
        cat (J.num ts) pid tid
    | _ ->
      Printf.sprintf
        {|{"name":"%s","cat":"%s","ph":"i","ts":%s,"pid":%d,"tid":%d,"s":"t","args":%s}|}
        name cat (J.num ts) pid tid args
  in
  add_record t json

let sink ?pid t : Bus.sink = fun ~time_ms ev -> record ?pid t ~time_ms ev

let count t = t.count

let contents t = Printf.sprintf "{\"traceEvents\": [\n%s\n]}\n" (Buffer.contents t.buf)

let write_file t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc
