type t = {
  id : string;
  name : string;
  summary : string;
  applies : string -> bool;
  scope_doc : string;
}

let normalize path =
  let path =
    if String.length path > 2 && String.equal (String.sub path 0 2) "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun c -> if c = '\\' then '/' else c) path

let under dirs path =
  let path = normalize path in
  List.exists
    (fun d ->
      let d = if String.length d > 0 && d.[String.length d - 1] = '/' then d else d ^ "/" in
      String.length path >= String.length d
      && String.equal (String.sub path 0 (String.length d)) d)
    dirs

(* R1 guards every library subtree: the simulator's determinism and the
   hot paths' monomorphism are global properties, and PR 1's purge only
   stays purged if nothing under lib/ regresses. *)
let r1 =
  {
    id = "R1";
    name = "no-poly-compare";
    summary =
      "polymorphic compare/equality (compare, =, <>, <, >, <=, >=, min, max, \
       Hashtbl.hash, List.mem/assoc) at a non-immediate type";
    applies = (fun p -> under [ "lib" ] p);
    scope_doc = "lib/ (every library subtree)";
  }

let r2 =
  {
    id = "R2";
    name = "no-ambient-randomness";
    summary =
      "Stdlib.Random is ambient, seed-global state; all randomness must flow \
       from Dq_util.Rng so runs replay bit-for-bit";
    applies = (fun p -> not (String.equal (normalize p) "lib/util/rng.ml"));
    scope_doc = "everywhere except lib/util/rng.ml";
  }

let r3 =
  {
    id = "R3";
    name = "no-wall-clock";
    summary =
      "Unix.gettimeofday/Unix.time/Sys.time read the host clock; simulation \
       code must use the virtual Clock";
    applies = (fun p -> not (under [ "bin" ] p));
    scope_doc = "everywhere except bin/";
  }

let r4 =
  {
    id = "R4";
    name = "guarded-telemetry";
    summary =
      "telemetry publishes that construct an event must be dominated by a \
       Bus.subscribed check so the no-sink path allocates nothing";
    applies =
      (fun p -> under [ "lib" ] p && not (under [ "lib/telemetry" ] p));
    scope_doc = "lib/ except lib/telemetry (the bus itself)";
  }

let r5 =
  {
    id = "R5";
    name = "domain-safety";
    summary =
      "closures handed to Dq_par.Pool.map/map_array must not mutate \
       captured refs, fields, arrays or hashtables (cross-domain race)";
    applies = (fun p -> not (under [ "lib/par" ] p));
    scope_doc = "everywhere except lib/par (the pool itself)";
  }

(* R6 covers the node-scoped protocol layers. Net.timer (lib/net/net.ml)
   arms an Engine.schedule_guarded event with an incarnation check, so
   callbacks armed before a crash/amnesia restart are dropped instead of
   firing into the node's next life. Raw Engine scheduling, through any
   Engine.schedule* entry point, bypasses that guard. The
   harness layers (nemesis, churn, driver, ...) schedule *off-node*
   orchestration on purpose and stay out of scope. *)
let r6 =
  {
    id = "R6";
    name = "no-raw-timer";
    summary =
      "node-scoped code must arm timers via Net.timer (incarnation-guarded); \
       raw Engine.schedule* (schedule, schedule_at, schedule_guarded, \
       schedule_delivery) survives crash+recovery as a zombie callback";
    applies = (fun p -> under [ "lib/dq"; "lib/protocols"; "lib/rpc" ] p);
    scope_doc = "lib/dq, lib/protocols and lib/rpc (node-scoped code)";
  }

let r7 =
  {
    id = "R7";
    name = "ordered-fold";
    summary =
      "a Hashtbl.fold/iter whose accumulated result escapes the enclosing \
       function leaks hash order; sort it deterministically or accumulate \
       commutatively (counts, sums, max) before it escapes";
    applies = (fun p -> under [ "lib" ] p);
    scope_doc = "lib/ (every library subtree)";
  }

let r8 =
  {
    id = "R8";
    name = "no-partial-functions";
    summary =
      "Option.get, List.hd and List.nth raise on inputs the type system \
       can't rule out; use total patterns (match, List.nth_opt, Rng.choose) \
       so protocol code fails closed, not with Failure";
    applies = (fun p -> under [ "lib" ] p);
    scope_doc = "lib/ (every library subtree)";
  }

let r9 =
  {
    id = "R9";
    name = "no-silent-drop";
    summary =
      "a wildcard '_ -> ()' arm matching on a message/payload variant \
       silently ignores every future constructor; name the constructors, \
       emit a telemetry drop, or annotate the deliberate drop with \
       [@dqr.lint.allow \"R9\"]";
    applies = (fun p -> under [ "lib/dq"; "lib/protocols" ] p);
    scope_doc = "lib/dq and lib/protocols (message dispatch)";
  }

(* R10 keeps every run a pure function of its arguments: a top-level
   cell is shared by every run in the process (and every domain of a
   pool). [Mutex.create] stays allowed: a lock is synchronisation, not
   state. *)
let r10 =
  {
    id = "R10";
    name = "no-global-state";
    summary =
      "a top-level let bound to ref, Hashtbl.create or Atomic.make is \
       process-global mutable state; pass it explicitly so a run is a pure \
       function of its arguments";
    applies = (fun p -> under [ "lib" ] p);
    scope_doc = "lib/ (every library subtree)";
  }

let all = [ r1; r2; r3; r4; r5; r6; r7; r8; r9; r10 ]

let find key =
  List.find_opt (fun r -> String.equal r.id key || String.equal r.name key) all
