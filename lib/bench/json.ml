type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

(* {2 Parsing}

   A recursive-descent parser over the whole input string. It accepts
   exactly the JSON this repository emits (hand-rolled writers in
   [Dq_telemetry.Json_util] and [Results]) plus the
   usual whitespace/escape liberties, which keeps it honest against
   externally edited baselines too. *)

type state = { src : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun msg -> raise (Error (Printf.sprintf "at byte %d: %s" st.pos msg))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when Char.equal got c -> advance st
  | Some got -> fail st "expected %C, found %C" c got
  | None -> fail st "expected %C, found end of input" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.equal (String.sub st.src st.pos n) word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal (expected %s)" word

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail st "invalid \\u escape %S" hex
          | Some code ->
            st.pos <- st.pos + 4;
            (* Our writers only escape control characters this way;
               anything outside the Latin-1 range degrades to '?'. *)
            if code < 0x100 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?')
        | c -> fail st "invalid escape \\%C" c);
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st "invalid number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_arr st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st "unexpected character %C" c

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
    advance st;
    Obj []
  | _ ->
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((key, value) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, value) :: acc))
      | _ -> fail st "expected ',' or '}' in object"
    in
    members []

and parse_arr st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
    advance st;
    Arr []
  | _ ->
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (value :: acc)
      | Some ']' ->
        advance st;
        Arr (List.rev (value :: acc))
      | _ -> fail st "expected ',' or ']' in array"
    in
    elements []

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | Some c -> fail st "trailing garbage %C after value" c
  | None -> ());
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* {2 Accessors} *)

let member key v =
  match v with
  | Obj fields -> Option.map snd (List.find_opt (fun (k, _) -> String.equal k key) fields)
  | _ -> None

let num v = match v with Num f -> Some f | _ -> None

let str v = match v with Str s -> Some s | _ -> None

let arr v = match v with Arr items -> Some items | _ -> None

(* {2 Flattening} *)

(* Every numeric leaf as a dotted path: the differ's working
   representation. Booleans count as 0/1 (a flipped flag is a change
   worth surfacing); strings and nulls are not comparable metrics and
   are skipped. *)
let flatten v =
  let out = ref [] in
  let join prefix key = if String.equal prefix "" then key else prefix ^ "." ^ key in
  let rec go prefix v =
    match v with
    | Num f -> out := (prefix, f) :: !out
    | Bool b -> out := (prefix, if b then 1. else 0.) :: !out
    | Obj fields -> List.iter (fun (k, v) -> go (join prefix k) v) fields
    | Arr items -> List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v) items
    | Str _ | Null -> ()
  in
  go "" v;
  List.rev !out
