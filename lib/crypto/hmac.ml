(* HMAC-SHA256 (RFC 2104 / FIPS 198-1).

   The secure store evaluates HMACs under a handful of long-lived keys
   (page MAC key, Merkle key, task key) millions of times, so the
   ipad/opad key blocks are absorbed once into a {!prekey} — a pair of
   SHA-256 midstates — and each MAC then costs only the message blocks
   plus one outer finalization, instead of re-hashing both 64-byte key
   pads every call. *)

let block_size = 64
let digest_size = 32

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_pad key byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key

type prekey = { istate : Sha256.ctx; ostate : Sha256.ctx }

let precompute ~key =
  let key = normalize_key key in
  let istate = Sha256.init () in
  Sha256.update istate (xor_pad key 0x36);
  let ostate = Sha256.init () in
  Sha256.update ostate (xor_pad key 0x5c);
  { istate; ostate }

(* Every prekeyed MAC is [finish pk (absorb into (start pk))]: the
   entry points below differ only in how they feed the message. *)
let start pk = Sha256.copy pk.istate

let finish pk ctx =
  let inner = Sha256.finalize ctx in
  let ctx = Sha256.copy pk.ostate in
  Sha256.update ctx inner;
  Sha256.finalize ctx

let mac_pre_slices pk slices =
  let ctx = start pk in
  List.iter (fun (s, off, len) -> Sha256.update_sub ctx s off len) slices;
  finish pk ctx

let mac_pre_list pk parts =
  let ctx = start pk in
  List.iter (Sha256.update ctx) parts;
  finish pk ctx

let mac_pre pk msg = mac_pre_list pk [ msg ]

let mac ~key msg = mac_pre (precompute ~key) msg

let verify_pre pk ~mac:expected msg =
  Constant_time.equal (mac_pre pk msg) expected

let verify ~key ~mac:expected msg =
  Constant_time.equal (mac ~key msg) expected
