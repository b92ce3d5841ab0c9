(** AES block cipher (FIPS 197), 128- and 256-bit keys. See {!Modes}
    for CBC/CTR. *)

val block_size : int
(** 16 bytes. *)

type key
(** Expanded round-key schedule. *)

val expand_key : string -> key
(** Expand a 16-byte (AES-128) or 32-byte (AES-256) key.
    @raise Invalid_argument on any other length. *)

val encrypt_block : key -> string -> string
(** Encrypt one 16-byte block. *)

val decrypt_block : key -> string -> string
(** Decrypt one 16-byte block. *)

(**/**)

(* Block-mode kernels for {!Modes}, which validates the ranges and
   iterates in exact 16-byte steps. In-place use (src and dst aliasing)
   is safe: every input word is loaded before anything is written. *)

val encrypt_block_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit

val encrypt_chained_into : key -> Bytes.t -> int -> unit
(** [encrypt_chained_into key buf off] is one CBC encryption step in
    place: [buf.[off..off+15]] becomes the encryption of itself xored
    with the 16 bytes before it. *)

val decrypt_xor_str_into :
  key -> string -> int -> string -> int -> Bytes.t -> int -> unit
(** [decrypt_xor_str_into key src soff chain coff dst doff] decrypts the
    block at [src.[soff]], xors it with [chain.[coff..coff+15]] and
    writes the result at [dst.[doff]]: one CBC decryption step, read
    straight from an immutable ciphertext. *)
