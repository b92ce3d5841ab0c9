(* Block cipher modes over AES-128: CBC with PKCS#7 padding (the
   paper's SQLCipher setup uses AES-CBC per database page) and CTR for
   stream-style channel encryption.

   CBC runs straight between the caller's input and a single output
   buffer, with the chaining xor folded into the AES kernels: no
   per-block temporaries and no staging copies of the message.
   Decryption reads its ciphertext in place from any offset of a
   larger string (the secure store decrypts straight out of the raw
   device page), and decrypts the last block first, so the padding is
   checked and the output allocated at its exact unpadded size before
   the rest is decrypted. This is the secure store's per-page hot
   path. *)

let xor_str_into dst doff src soff len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (doff + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (doff + i))
         lxor Char.code (String.unsafe_get src (soff + i))))
  done

(* -- CBC ----------------------------------------------------------- *)

let pkcs7_pad s =
  let pad = 16 - (String.length s mod 16) in
  s ^ String.make pad (Char.chr pad)

let pkcs7_unpad s =
  let n = String.length s in
  if n = 0 || n mod 16 <> 0 then Error "cbc: ciphertext not block aligned"
  else begin
    let pad = Char.code s.[n - 1] in
    if pad = 0 || pad > 16 || pad > n then Error "cbc: bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code s.[i] <> pad then ok := false
      done;
      if !ok then Ok (String.sub s 0 (n - pad)) else Error "cbc: bad padding"
    end
  end

let cbc_encrypt ~key ~iv plain =
  if String.length iv <> 16 then invalid_arg "Modes.cbc_encrypt: iv must be 16 bytes";
  let len = String.length plain in
  let pad = 16 - (len mod 16) in
  let n = len + pad in
  (* pad directly into the output, then encrypt each block in place,
     chained to the ciphertext block before it *)
  let out = Bytes.create n in
  Bytes.blit_string plain 0 out 0 len;
  Bytes.fill out len pad (Char.chr pad);
  xor_str_into out 0 iv 0 16;
  Aes.encrypt_block_into key out 0 out 0;
  for i = 1 to (n / 16) - 1 do
    Aes.encrypt_chained_into key out (i * 16)
  done;
  Bytes.unsafe_to_string out

let cbc_decrypt_sub ~key ~iv src off n =
  if String.length iv <> 16 then invalid_arg "Modes.cbc_decrypt: iv must be 16 bytes";
  if off < 0 || n < 0 || off > String.length src - n then
    invalid_arg "Modes.cbc_decrypt_sub: range out of bounds";
  if n = 0 || n mod 16 <> 0 then Error "cbc: ciphertext not block aligned"
  else begin
    (* block [i] chains to ciphertext block [i - 1], read in place;
       block 0 chains to the IV *)
    let decrypt_block i dst doff =
      let soff = off + (i * 16) in
      if i = 0 then Aes.decrypt_xor_str_into key src soff iv 0 dst doff
      else Aes.decrypt_xor_str_into key src soff src (soff - 16) dst doff
    in
    let last = (n / 16) - 1 in
    let tail = Bytes.create 16 in
    decrypt_block last tail 0;
    let pad = Char.code (Bytes.get tail 15) in
    let ok = ref (pad >= 1 && pad <= 16) in
    if !ok then
      for i = 16 - pad to 15 do
        if Char.code (Bytes.get tail i) <> pad then ok := false
      done;
    if not !ok then Error "cbc: bad padding"
    else begin
      let out = Bytes.create (n - pad) in
      for i = 0 to last - 1 do
        decrypt_block i out (i * 16)
      done;
      Bytes.blit tail 0 out (last * 16) (16 - pad);
      Ok (Bytes.unsafe_to_string out)
    end
  end

let cbc_decrypt ~key ~iv cipher =
  cbc_decrypt_sub ~key ~iv cipher 0 (String.length cipher)

(* -- CTR ----------------------------------------------------------- *)

let incr_counter ctr =
  let rec bump i =
    if i < 0 then ()
    else begin
      let v = (Char.code (Bytes.get ctr i) + 1) land 0xff in
      Bytes.set ctr i (Char.chr v);
      if v = 0 then bump (i - 1)
    end
  in
  bump 15

(* Big-endian addition of a small integer into the 16-byte counter,
   wrapping mod 2^128 (the carry off byte 0 is dropped, matching what
   repeated [incr_counter] does). Lets a lane start mid-message. *)
let add_counter ctr k =
  if k < 0 then invalid_arg "Modes: negative counter offset";
  let rec add i k =
    if k = 0 || i < 0 then ()
    else begin
      let v = Char.code (Bytes.get ctr i) + (k land 0xff) in
      Bytes.set ctr i (Char.chr (v land 0xff));
      add (i - 1) ((k lsr 8) + (v lsr 8))
    end
  in
  add 15 k

let ctr_transform_into ~key ~nonce ?(block_offset = 0) src soff dst doff len =
  if String.length nonce <> 16 then
    invalid_arg "Modes.ctr_transform_into: nonce must be 16 bytes";
  if soff < 0 || len < 0 || soff + len > String.length src then
    invalid_arg "Modes.ctr_transform_into: source range out of bounds";
  if doff < 0 || doff + len > Bytes.length dst then
    invalid_arg "Modes.ctr_transform_into: destination range out of bounds";
  let ctr = Bytes.of_string nonce in
  add_counter ctr block_offset;
  let keystream = Bytes.create 16 in
  let off = ref 0 in
  while !off < len do
    Aes.encrypt_block_into key ctr 0 keystream 0;
    let chunk = min 16 (len - !off) in
    for i = 0 to chunk - 1 do
      Bytes.unsafe_set dst
        (doff + !off + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src (soff + !off + i))
           lxor Char.code (Bytes.unsafe_get keystream i)))
    done;
    incr_counter ctr;
    off := !off + 16
  done

let ctr_transform ~key ~nonce data =
  let n = String.length data in
  let out = Bytes.create n in
  ctr_transform_into ~key ~nonce data 0 out 0 n;
  Bytes.unsafe_to_string out
