(** A human-readable log wired to virtual time.

    {!attach} subscribes a rendering sink to the engine's telemetry bus
    that stamps every typed event with its virtual time, so protocol
    traces read like the paper's message diagrams:

    {v [      8.1ms] [lease] node 0: volume 0 lease from 1 expired v}

    [dqr run --verbose] attaches it. Nothing prints unless it is
    attached; the simulator behaves identically either way. *)

val attach : ?ppf:Format.formatter -> Engine.t -> unit
(** Subscribe the rendering sink to the engine's telemetry bus: every
    typed event from every layer prints to [ppf] (default [stdout]) as
    one [[<time>ms] [<category>] <event>] line. *)
