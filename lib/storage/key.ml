type t = { volume : int; index : int }

let make ~volume ~index =
  if volume < 0 || index < 0 then invalid_arg "Key.make: negative component";
  { volume; index }

let volume t = t.volume

let index t = t.index

let compare a b =
  let c = Int.compare a.volume b.volume in
  if c <> 0 then c else Int.compare a.index b.index

let equal a b = compare a b = 0

let hash t = (t.volume * 1000003) lxor t.index

let pp ppf t = Format.fprintf ppf "v%d/o%d" t.volume t.index

(* Same bytes as [pp], without a formatter: telemetry names the key of
   every keyed event. *)
let to_string t = "v" ^ string_of_int t.volume ^ "/o" ^ string_of_int t.index
