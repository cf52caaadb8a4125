(* The benchmark measures host time on purpose: it is the one place in
   the tree that times the simulator from outside. *)
[@@@dqr.lint.allow "R3"]

let now () = Unix.gettimeofday ()

let minor_words () = Gc.minor_words ()

let time f =
  let t0 = now () in
  let w0 = minor_words () in
  let x = f () in
  (x, now () -. t0, minor_words () -. w0)
