module Qs = Dq_quorum.Quorum_system
module Strategy = Dq_quorum.Strategy

type t = {
  iqs : Qs.t;
  oqs : Qs.t;
  iqs_read_strategy : Strategy.t option;
  iqs_write_strategy : Strategy.t option;
  use_volume_leases : bool;
  volume_lease_ms : float;
  object_lease_ms : float option;
  max_drift : float;
  max_delayed : int;
  retry_timeout_ms : float;
  retry_backoff : float;
  max_rounds : int option;
  proactive_renew : bool;
  renew_margin_ms : float;
  atomic_reads : bool;
  batch_renewals : bool;
}

let validate t =
  if t.volume_lease_ms <= 0. then invalid_arg "Config: volume lease must be positive";
  (match t.object_lease_ms with
  | Some lease when lease <= 0. -> invalid_arg "Config: object lease must be positive"
  | Some _ | None -> ());
  if t.max_drift < 0. || t.max_drift >= 1. then
    invalid_arg "Config: max_drift must be in [0, 1)";
  if t.max_delayed < 1 then invalid_arg "Config: max_delayed must be at least 1";
  if t.retry_timeout_ms <= 0. then invalid_arg "Config: retry timeout must be positive";
  if t.retry_backoff < 1. then invalid_arg "Config: retry backoff must be >= 1";
  (match t.max_rounds with
  | Some rounds when rounds < 1 -> invalid_arg "Config: max_rounds must be at least 1"
  | Some _ | None -> ());
  if t.renew_margin_ms <= 0. || t.renew_margin_ms >= t.volume_lease_ms then
    invalid_arg "Config: renew margin must lie strictly inside the lease";
  if Qs.size t.iqs = 0 || Qs.size t.oqs = 0 then invalid_arg "Config: empty quorum system";
  let check_strategy what mode strategy =
    match strategy with
    | None -> ()
    | Some s ->
      if not (Strategy.system s == t.iqs) then
        invalid_arg
          (Printf.sprintf "Config: %s is not built over the configured quorum system" what);
      (match Strategy.mode s, mode with
      | Qs.Read, Qs.Read | Qs.Write, Qs.Write -> ()
      | Qs.Read, Qs.Write | Qs.Write, Qs.Read ->
        invalid_arg (Printf.sprintf "Config: %s has the wrong quorum mode" what))
  in
  check_strategy "iqs_read_strategy" Qs.Read t.iqs_read_strategy;
  check_strategy "iqs_write_strategy" Qs.Write t.iqs_write_strategy

let dqvl ~servers ?(volume_lease_ms = 5000.) ?(proactive_renew = true) ?object_lease_ms
    ?(max_drift = 1e-3) ?max_rounds () =
  let t =
    {
      iqs = Qs.majority servers;
      oqs = Qs.rowa servers;
      iqs_read_strategy = None;
      iqs_write_strategy = None;
      use_volume_leases = true;
      volume_lease_ms;
      object_lease_ms;
      max_drift;
      max_delayed = 64;
      retry_timeout_ms = 400.;
      retry_backoff = 2.;
      max_rounds;
      proactive_renew;
      renew_margin_ms = Float.min 1000. (volume_lease_ms /. 4.);
      atomic_reads = false;
      batch_renewals = false;
    }
  in
  validate t;
  t

let basic ~servers () =
  let t = dqvl ~servers () in
  { t with use_volume_leases = false; proactive_renew = false }

let name t =
  let base = if t.use_volume_leases then "dqvl" else "dq-basic" in
  if t.atomic_reads then base ^ "-atomic" else base
