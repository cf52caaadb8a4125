open Dq_storage

type kind = Read | Write

type op = {
  id : int;
  client : int;
  key : Key.t;
  kind : kind;
  value : string;
  lc : Lc.t option;
  invoked : float;
  responded : float option;
  gave_up : float option;
}

(* [completed]/[gave_up] are maintained at the update points below so
   the hot-path counters are O(1) reads rather than table folds. *)
type t = {
  mutable next_id : int;
  mutable completed : int;
  mutable gave_up : int;
  table : (int, op) Hashtbl.t;
}

let create () =
  { next_id = 0; completed = 0; gave_up = 0; table = Hashtbl.create 1024 }

let begin_op t ~client ~key ~kind ~value ~now =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.table id
    { id; client; key; kind; value; lc = None; invoked = now; responded = None; gave_up = None };
  id

let complete_op t ~id ~value ~lc ~now =
  match Hashtbl.find_opt t.table id with
  | Some op ->
    let value = match op.kind with Write -> op.value | Read -> value in
    if Option.is_none op.responded then t.completed <- t.completed + 1;
    Hashtbl.replace t.table id { op with value; lc = Some lc; responded = Some now }
  | None -> invalid_arg "History.complete_op: unknown operation id"

let give_up_op t ~id ~now =
  match Hashtbl.find_opt t.table id with
  | Some op ->
    if Option.is_none op.responded then begin
      if Option.is_none op.gave_up then t.gave_up <- t.gave_up + 1;
      Hashtbl.replace t.table id { op with gave_up = Some now }
    end
  | None -> invalid_arg "History.give_up_op: unknown operation id"

let ops t =
  Hashtbl.fold (fun _ op acc -> op :: acc) t.table []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let completed_count t = t.completed

let size t = Hashtbl.length t.table
