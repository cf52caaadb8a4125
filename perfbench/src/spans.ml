type span = { id : int; name : string; parent : int option; start_s : float; stop_s : float }

type t = { mutable finished : span list; mutable open_ids : int list; mutable next_id : int }

let create () = { finished = []; open_ids = []; next_id = 0 }

let within t name f =
  match t with
  | None -> f ()
  | Some t ->
    let id = t.next_id in
    let parent = match t.open_ids with [] -> None | p :: _ -> Some p in
    t.next_id <- id + 1;
    t.open_ids <- id :: t.open_ids;
    let start_s = Wall.now () in
    let close () =
      t.open_ids <- List.tl t.open_ids;
      t.finished <- { id; name; parent; start_s; stop_s = Wall.now () } :: t.finished
    in
    Fun.protect ~finally:close f

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.finished

let duration s = s.stop_s -. s.start_s

(* Children nest strictly inside their parent (spans are opened and
   closed as a stack), so a parent's covered time is the plain sum of
   its children's durations. *)
let self_time t span =
  List.fold_left
    (fun acc s ->
      if Option.equal Int.equal s.parent (Some span.id) then acc -. duration s else acc)
    (duration span) t.finished

let self_by_name t =
  let by_name = List.stable_sort (fun a b -> String.compare a.name b.name) (spans t) in
  List.fold_left
    (fun acc s ->
      match acc with
      | (name, total, self, n) :: rest when String.equal name s.name ->
        (name, total +. duration s, self +. self_time t s, n + 1) :: rest
      | _ -> (s.name, duration s, self_time t s, 1) :: acc)
    [] by_name
  |> List.rev

let to_json t =
  let origin = match spans t with [] -> 0. | s :: _ -> s.start_s in
  let one s =
    Printf.sprintf
      "{\"id\": %d, \"name\": %S, \"parent\": %s, \"start_s\": %s, \"end_s\": %s, \"self_s\": %s}"
      s.id s.name
      (match s.parent with Some p -> string_of_int p | None -> "null")
      (Report.number (s.start_s -. origin))
      (Report.number (s.stop_s -. origin))
      (Report.number (self_time t s))
  in
  "[\n" ^ String.concat ",\n" (List.map one (spans t)) ^ "\n]\n"
