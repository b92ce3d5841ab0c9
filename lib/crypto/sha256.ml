(* SHA-256 (FIPS 180-4), implemented from scratch on 32-bit words.
   OCaml's native int is 63-bit so we mask to 32 bits wherever a value
   is rotated or stored; logical ops never overflow the mask.

   Hot-path notes:
   - full 64-byte blocks arriving through [update_sub] are compressed
     straight out of the source string (no staging blit into the
     context buffer), and words are loaded with one 32-bit big-endian
     load each;
   - each rotate-xor Sigma is computed on the word doubled into the
     upper half of the int ([x lor (x lsl 32)]): a right shift of that
     is a 32-bit rotate in its low bits, so a Sigma is three shifts and
     two xors;
   - the message schedule lives in a per-domain scratch array, fetched
     once per [update_sub]/[finalize] call: the inner loop allocates
     nothing, and contexts on different domains never share it;
   - [finalize] pads inside the context's block buffer, so the only
     allocation is the digest.
   [copy] clones a context mid-stream, which is what lets {!Hmac}
   precompute the ipad/opad midstates once per key. *)

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes so far *)
}

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask = 0xffffffff

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy ctx = { ctx with buf = Bytes.copy ctx.buf }

(* message-schedule scratch, one per domain *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* Run the 64 rounds over a schedule already loaded into [w.(0..15)].
   Only the low 32 bits of a sum depend on the low 32 bits of its terms,
   so the Sigmas enter sums unmasked; a word is masked only where it is
   stored, since it will be shifted right later. *)
let compress_rounds ctx w =
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) in
    let xx = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t - 2) in
    let yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  for t = 0 to 63 do
    let ev = !e and av = !a and bv = !b and fv = !f and gv = !g in
    let ee = ev lor (ev lsl 32) and aa = av lor (av lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = gv lxor (ev land (fv lxor gv)) in
    let t1 = !h + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = av land bv lor (!c land (av lor bv)) in
    h := gv;
    g := fv;
    f := ev;
    e := (!d + t1) land mask;
    d := !c;
    c := bv;
    b := av;
    a := (t1 + s0 + maj) land mask
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask;
  ctx.h1 <- (ctx.h1 + !b) land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask;
  ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask;
  ctx.h5 <- (ctx.h5 + !f) land mask;
  ctx.h6 <- (ctx.h6 + !g) land mask;
  ctx.h7 <- (ctx.h7 + !h) land mask

(* Compress the block at [off] of the context buffer or of a source
   string. Callers only pass offsets with 64 bytes behind them. *)
let compress ctx w block off =
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (Bytes.get_int32_be block (off + (t * 4))) land mask)
  done;
  compress_rounds ctx w

let compress_str ctx w s off =
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (String.get_int32_be s (off + (t * 4))) land mask)
  done;
  compress_rounds ctx w

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub: range out of bounds";
  let w = Domain.DLS.get schedule in
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* top up a partially filled block buffer first *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx w ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress_str ctx w s !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_sub ctx s 0 (String.length s)

(* Pad in place: 0x80, zeros up to byte 56 of a block (spilling into
   one more block when fewer than 9 bytes are free), then the 64-bit
   big-endian message bit length. *)
let finalize ctx =
  let w = Domain.DLS.get schedule in
  let buf = ctx.buf and used = ctx.buf_len in
  Bytes.set buf used '\x80';
  if used >= 56 then begin
    Bytes.fill buf (used + 1) (63 - used) '\000';
    compress ctx w buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (used + 1) (55 - used) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx w buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  Bytes.set_int32_be out 0 (Int32.of_int ctx.h0);
  Bytes.set_int32_be out 4 (Int32.of_int ctx.h1);
  Bytes.set_int32_be out 8 (Int32.of_int ctx.h2);
  Bytes.set_int32_be out 12 (Int32.of_int ctx.h3);
  Bytes.set_int32_be out 16 (Int32.of_int ctx.h4);
  Bytes.set_int32_be out 20 (Int32.of_int ctx.h5);
  Bytes.set_int32_be out 24 (Int32.of_int ctx.h6);
  Bytes.set_int32_be out 28 (Int32.of_int ctx.h7);
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Hex.of_string (digest s)
