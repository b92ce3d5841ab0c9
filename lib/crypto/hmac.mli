(** HMAC-SHA256 (RFC 2104). *)

val digest_size : int
(** Output length in bytes (32). *)

val block_size : int
(** Underlying hash block size in bytes (64). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys of any length are accepted per the RFC. *)

val verify : key:string -> mac:string -> string -> bool
(** Constant-time tag check. *)

(** {2 Precomputed keys}

    A {!prekey} holds the SHA-256 midstates after absorbing the
    ipad/opad key blocks, so each subsequent MAC under the same key
    skips both 64-byte key pads — roughly 2 of the 5 compressions of a
    short-message HMAC. Tags are bit-identical to {!mac}. *)

type prekey

val precompute : key:string -> prekey
(** Absorb [key]'s ipad/opad blocks once. *)

val mac_pre : prekey -> string -> string
(** [mac_pre pk msg = mac ~key msg] for the prekey's key. *)

val mac_pre_list : prekey -> string list -> string
(** MAC of the concatenation of the parts, without building it. *)

val mac_pre_slices : prekey -> (string * int * int) list -> string
(** [mac_pre_slices pk [(s, off, len); ...]] is the MAC of the
    concatenation of the slices [s.[off .. off+len-1]], read in place
    without copying them out. Tags equal {!mac_pre_list} over the
    [String.sub] copies.
    @raise Invalid_argument if a range is not inside its string. *)

val verify_pre : prekey -> mac:string -> string -> bool
(** Constant-time tag check against a precomputed key. *)
