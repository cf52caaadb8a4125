open Dq_storage

type key_writes = {
  writes : History.op array;
  lcs : Lc.t array;
  ends : float array;
  by_end : int array;
  sorted_ends : float array;
}

(* [rev_writes] holds one key's completed writes, newest first. *)
let of_rev_list rev_writes =
  let writes = Array.of_list (List.rev rev_writes) in
  let n = Array.length writes in
  let lcs = Array.make n Lc.zero and ends = Array.make n 0. in
  Array.iteri
    (fun i (w : History.op) ->
      match w.responded, w.lc with
      | Some w_end, Some lc ->
        lcs.(i) <- lc;
        ends.(i) <- w_end
      | _ -> () (* [build] collects completed writes only *))
    writes;
  let by_end = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare ends.(a) ends.(b)) by_end;
  { writes; lcs; ends; by_end; sorted_ends = Array.map (fun i -> ends.(i)) by_end }

let build ops =
  let rev_writes = Hashtbl.create 16 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Write, Some _, Some _ -> (
        match Hashtbl.find_opt rev_writes op.key with
        | Some ws -> ws := op :: !ws
        | None -> Hashtbl.add rev_writes op.key (ref [ op ]))
      | _ -> ())
    ops;
  let index = Hashtbl.create (Hashtbl.length rev_writes) in
  Hashtbl.iter (fun key ws -> Hashtbl.replace index key (of_rev_list !ws)) rev_writes;
  index

let partition_point n p =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if p mid then search (mid + 1) hi else search lo mid
  in
  search 0 n

let ended_by kw t =
  partition_point (Array.length kw.sorted_ends) (fun j -> kw.sorted_ends.(j) <= t)

let by_lc kw =
  let order = Array.init (Array.length kw.writes) Fun.id in
  Array.stable_sort (fun a b -> Lc.compare kw.lcs.(a) kw.lcs.(b)) order;
  order
