(* AES-128/AES-256 (FIPS 197), from scratch.

   The S-box is computed at module initialization from the GF(2^8)
   multiplicative inverse (via log/antilog tables over generator 0x03)
   followed by the standard affine transform, rather than transcribed
   as a 256-entry literal — less room for typos, and the tests pin the
   FIPS-197 known-answer vectors anyway. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

(* log/antilog tables for GF(2^8) with generator 3 *)
let alog = Array.make 256 0
let log_ = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    alog.(i) <- !x;
    log_.(!x) <- i;
    (* multiply by generator 3 = x * 2 + x *)
    x := xtime !x lxor !x
  done;
  alog.(255) <- alog.(0)

let gmul a b =
  if a = 0 || b = 0 then 0 else alog.((log_.(a) + log_.(b)) mod 255)

let ginv a = if a = 0 then 0 else alog.(255 - log_.(a))
let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

let () =
  for i = 0 to 255 do
    let b = ginv i in
    let s = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 in
    sbox.(i) <- s lxor 0x63
  done;
  Array.iteri (fun i s -> inv_sbox.(s) <- i) sbox

let block_size = 16

(* T-tables for the table-driven implementation (one 32-bit word per
   byte value per table). te/td follow the standard formulation:
     te0[x] = (2s, s, s, 3s)        with s = sbox[x]
     td0[x] = (14i, 9i, 13i, 11i)   with i = inv_sbox applied upstream
   and te_j/td_j are te0/td0 rotated right by 8j bits. The four tables
   of each direction sit back to back in one array ([te.(256 * j + x)]
   is te_j[x]), so a round needs one table base register, not four.
   Built at init from the computed S-box — again no literal tables. *)

let pack a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let rot32 x n = ((x lsr n) lor (x lsl (32 - n))) land 0xffffffff

let te = Array.make 1024 0
let td = Array.make 1024 0

let () =
  for x = 0 to 255 do
    let s = sbox.(x) in
    let e = pack (gmul s 2) s s (gmul s 3) in
    let i = inv_sbox.(x) in
    let d = pack (gmul i 14) (gmul i 9) (gmul i 13) (gmul i 11) in
    for j = 0 to 3 do
      te.((256 * j) + x) <- (if j = 0 then e else rot32 e (8 * j));
      td.((256 * j) + x) <- (if j = 0 then d else rot32 d (8 * j))
    done
  done

(* Expanded key: forward schedule for encryption plus the equivalent
   inverse cipher schedule (round keys reversed, InvMixColumns applied
   to the middle rounds) for decryption. 10 rounds for 128-bit keys,
   14 for 256-bit. *)
type key = { enc : int array; dec : int array; rounds : int }

let inv_mix_word w =
  let a = (w lsr 24) land 0xff
  and b = (w lsr 16) land 0xff
  and c = (w lsr 8) land 0xff
  and d = w land 0xff in
  pack
    (gmul a 14 lxor gmul b 11 lxor gmul c 13 lxor gmul d 9)
    (gmul a 9 lxor gmul b 14 lxor gmul c 11 lxor gmul d 13)
    (gmul a 13 lxor gmul b 9 lxor gmul c 14 lxor gmul d 11)
    (gmul a 11 lxor gmul b 13 lxor gmul c 9 lxor gmul d 14)

let sub_word v =
  (sbox.((v lsr 24) land 0xff) lsl 24)
  lor (sbox.((v lsr 16) land 0xff) lsl 16)
  lor (sbox.((v lsr 8) land 0xff) lsl 8)
  lor sbox.(v land 0xff)

let expand_key key_str =
  let nk =
    match String.length key_str with
    | 16 -> 4
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: need 16 or 32 bytes"
  in
  let rounds = nk + 6 in
  let words = 4 * (rounds + 1) in
  let w = Array.make words 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code key_str.[4 * i] lsl 24)
      lor (Char.code key_str.[(4 * i) + 1] lsl 16)
      lor (Char.code key_str.[(4 * i) + 2] lsl 8)
      lor Char.code key_str.[(4 * i) + 3]
  done;
  let rcon = ref 1 in
  for i = nk to words - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then begin
        let rotated = ((temp lsl 8) lor (temp lsr 24)) land 0xffffffff in
        let v = sub_word rotated lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        v
      end
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  let dec = Array.make words 0 in
  for r = 0 to rounds do
    for c = 0 to 3 do
      let src = w.(((rounds - r) * 4) + c) in
      dec.((r * 4) + c) <-
        (if r = 0 || r = rounds then src else inv_mix_word src)
    done
  done;
  { enc = w; dec; rounds }

(* Word load/store helpers. Offsets come from the block-mode drivers,
   which iterate in exact 16-byte steps over buffers they sized; the
   loads are single 32-bit big-endian reads, masked back to 32 bits
   (the conversion from [int32] sign-extends). *)
let get_word src off = Int32.to_int (Bytes.get_int32_be src off) land 0xffffffff

let get_word_str src off =
  Int32.to_int (String.get_int32_be src off) land 0xffffffff

let put_word dst off v = Bytes.set_int32_be dst off (Int32.of_int v)

(* Core rounds; [i0..i3] are the state words already whitened with
   round key 0, and [x0..x3] are xored into the output words (the CBC
   chaining block on decryption, zero otherwise). Every table index is
   a byte ([land 0xff], or [lsr 24] of a 32-bit word) and every round
   key index is below [4 * (rounds + 1)], so the lookups skip the bounds
   check. *)
let encrypt_core key i0 i1 i2 i3 dst doff =
  let te = te in
  let w = key.enc in
  let rounds = key.rounds in
  let s0 = ref i0 and s1 = ref i1 and s2 = ref i2 and s3 = ref i3 in
  for r = 1 to rounds - 1 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    let k = 4 * r in
    s0 :=
      Array.unsafe_get te (a lsr 24)
      lxor Array.unsafe_get te (256 + ((b lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((c lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (d land 0xff))
      lxor Array.unsafe_get w k;
    s1 :=
      Array.unsafe_get te (b lsr 24)
      lxor Array.unsafe_get te (256 + ((c lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((d lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (a land 0xff))
      lxor Array.unsafe_get w (k + 1);
    s2 :=
      Array.unsafe_get te (c lsr 24)
      lxor Array.unsafe_get te (256 + ((d lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((a lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (b land 0xff))
      lxor Array.unsafe_get w (k + 2);
    s3 :=
      Array.unsafe_get te (d lsr 24)
      lxor Array.unsafe_get te (256 + ((a lsr 16) land 0xff))
      lxor Array.unsafe_get te (512 + ((b lsr 8) land 0xff))
      lxor Array.unsafe_get te (768 + (c land 0xff))
      lxor Array.unsafe_get w (k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let k = 4 * rounds in
  let final a b c d k =
    (Array.unsafe_get sbox (a lsr 24) lsl 24)
    lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get sbox (d land 0xff)
    lxor Array.unsafe_get w k
  in
  put_word dst doff (final a b c d k);
  put_word dst (doff + 4) (final b c d a (k + 1));
  put_word dst (doff + 8) (final c d a b (k + 2));
  put_word dst (doff + 12) (final d a b c (k + 3))

let encrypt_block_into key src soff dst doff =
  let w = key.enc in
  encrypt_core key
    (get_word src soff lxor w.(0))
    (get_word src (soff + 4) lxor w.(1))
    (get_word src (soff + 8) lxor w.(2))
    (get_word src (soff + 12) lxor w.(3))
    dst doff

(* One CBC encryption step in place: the block at [off] is xored with
   the ciphertext block before it and encrypted over itself. *)
let encrypt_chained_into key buf off =
  let w = key.enc in
  encrypt_core key
    (get_word buf off lxor get_word buf (off - 16) lxor w.(0))
    (get_word buf (off + 4) lxor get_word buf (off - 12) lxor w.(1))
    (get_word buf (off + 8) lxor get_word buf (off - 8) lxor w.(2))
    (get_word buf (off + 12) lxor get_word buf (off - 4) lxor w.(3))
    buf off

let decrypt_core key i0 i1 i2 i3 x0 x1 x2 x3 dst doff =
  let td = td in
  let w = key.dec in
  let rounds = key.rounds in
  let s0 = ref i0 and s1 = ref i1 and s2 = ref i2 and s3 = ref i3 in
  for r = 1 to rounds - 1 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    let k = 4 * r in
    s0 :=
      Array.unsafe_get td (a lsr 24)
      lxor Array.unsafe_get td (256 + ((d lsr 16) land 0xff))
      lxor Array.unsafe_get td (512 + ((c lsr 8) land 0xff))
      lxor Array.unsafe_get td (768 + (b land 0xff))
      lxor Array.unsafe_get w k;
    s1 :=
      Array.unsafe_get td (b lsr 24)
      lxor Array.unsafe_get td (256 + ((a lsr 16) land 0xff))
      lxor Array.unsafe_get td (512 + ((d lsr 8) land 0xff))
      lxor Array.unsafe_get td (768 + (c land 0xff))
      lxor Array.unsafe_get w (k + 1);
    s2 :=
      Array.unsafe_get td (c lsr 24)
      lxor Array.unsafe_get td (256 + ((b lsr 16) land 0xff))
      lxor Array.unsafe_get td (512 + ((a lsr 8) land 0xff))
      lxor Array.unsafe_get td (768 + (d land 0xff))
      lxor Array.unsafe_get w (k + 2);
    s3 :=
      Array.unsafe_get td (d lsr 24)
      lxor Array.unsafe_get td (256 + ((c lsr 16) land 0xff))
      lxor Array.unsafe_get td (512 + ((b lsr 8) land 0xff))
      lxor Array.unsafe_get td (768 + (a land 0xff))
      lxor Array.unsafe_get w (k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let k = 4 * rounds in
  let final a b c d k =
    (Array.unsafe_get inv_sbox (a lsr 24) lsl 24)
    lor (Array.unsafe_get inv_sbox ((b lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get inv_sbox ((c lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get inv_sbox (d land 0xff)
    lxor Array.unsafe_get w k
  in
  put_word dst doff (final a d c b k lxor x0);
  put_word dst (doff + 4) (final b a d c (k + 1) lxor x1);
  put_word dst (doff + 8) (final c b a d (k + 2) lxor x2);
  put_word dst (doff + 12) (final d c b a (k + 3) lxor x3)

let decrypt_xor_str_into key src soff chain coff dst doff =
  let w = key.dec in
  decrypt_core key
    (get_word_str src soff lxor w.(0))
    (get_word_str src (soff + 4) lxor w.(1))
    (get_word_str src (soff + 8) lxor w.(2))
    (get_word_str src (soff + 12) lxor w.(3))
    (get_word_str chain coff)
    (get_word_str chain (coff + 4))
    (get_word_str chain (coff + 8))
    (get_word_str chain (coff + 12))
    dst doff

let zero_block = String.make 16 '\000'

let encrypt_block key plain =
  if String.length plain <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let dst = Bytes.create 16 in
  Bytes.blit_string plain 0 dst 0 16;
  encrypt_block_into key dst 0 dst 0;
  Bytes.unsafe_to_string dst

let decrypt_block key cipher =
  if String.length cipher <> 16 then invalid_arg "Aes.decrypt_block: need 16 bytes";
  let dst = Bytes.create 16 in
  decrypt_xor_str_into key cipher 0 zero_block 0 dst 0;
  Bytes.unsafe_to_string dst
