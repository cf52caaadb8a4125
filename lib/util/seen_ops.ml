(* [by_client.(c)] holds bit [op land 7] of byte [op lsr 3] for every
   accepted op of client [c]. Both arrays grow by doubling, and a
   client never heard from costs one pointer to the shared empty
   bitset, which is never written (it has no bytes). *)
type t = { mutable by_client : Bytes.t array }

let create () = { by_client = [||] }

let grow_clients t client =
  let by_client = Array.make (Stdlib.max (client + 1) (2 * Array.length t.by_client)) Bytes.empty in
  Array.blit t.by_client 0 by_client 0 (Array.length t.by_client);
  t.by_client <- by_client

let grow_bits bits byte =
  let grown = Bytes.make (Stdlib.max (byte + 1) (2 * Bytes.length bits)) '\000' in
  Bytes.blit bits 0 grown 0 (Bytes.length bits);
  grown

let add_fresh t ~client ~op =
  if client < 0 || op < 0 then invalid_arg "Seen_ops.add_fresh: negative id";
  if client >= Array.length t.by_client then grow_clients t client;
  let byte = op lsr 3 in
  let bits =
    let bits = t.by_client.(client) in
    if byte < Bytes.length bits then bits
    else begin
      let bits = grow_bits bits byte in
      t.by_client.(client) <- bits;
      bits
    end
  in
  let b = Bytes.get_uint8 bits byte in
  let mask = 1 lsl (op land 7) in
  if b land mask <> 0 then false
  else begin
    Bytes.set_uint8 bits byte (b lor mask);
    true
  end
