(* R10 fixture: top-level mutable cells shared by the whole process. *)

let counter = ref 0

let table : (string, int) Hashtbl.t = Hashtbl.create 16

let generation = Atomic.make 0

(* a nested module's structure is just as global *)
module Cache = struct
  let entries : string list ref = ref []
end
