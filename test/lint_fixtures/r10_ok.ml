(* R10 clean twin: mutable state owned by a call or a value, not the
   process. *)

(* a lock is synchronisation, not state *)
let lock = Mutex.create ()

(* made per call and handed to the caller *)
let make_counter () = ref 0

(* local to one call *)
let count xs =
  let n = ref 0 in
  List.iter (fun _ -> incr n) xs;
  !n

(* owned by a value the caller threads through *)
type t = { seen : (string, unit) Hashtbl.t }

let create () = { seen = Hashtbl.create 16 }

(* immutable top-level data *)
let limits = [ 1; 2; 3 ]

(* a deliberate exception, annotated *)
let[@dqr.lint.allow "R10"] debug_level = ref 0
