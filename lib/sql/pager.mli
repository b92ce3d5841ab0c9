(** Page access abstraction over storage backends: in-memory (host
    temporary tables), plain block device (non-secure configurations)
    and the encrypted/Merkle-verified secure store. *)

type t

exception Integrity_failure of string
(** Raised when the secure backend detects tampering or staleness. *)

val in_memory : unit -> t
val plain : Ironsafe_storage.Block_device.t -> t
val secure : Ironsafe_securestore.Secure_store.t -> t

(** A batched read of a window of pages, in three phases. *)
type batch = {
  verify : int -> unit;
      (** verify slot [k]; pure, so it may run on another domain *)
  take : int -> string;
      (** the payload of slot [k], on the caller, in slot order; raises
          {!Integrity_failure} *)
  release : unit -> unit;  (** end the batch, after the last [take] *)
}

val make :
  capacity:int ->
  read:(int -> string) ->
  write:(int -> string -> unit) ->
  allocate:(unit -> int) ->
  page_count:(unit -> int) ->
  ?cached:(int -> bool) ->
  ?flush:(unit -> unit) ->
  ?read_batch:(int array -> batch) ->
  unit ->
  t
(** Build a pager from explicit operations. [cached i] should report
    whether a read of page [i] would be served without touching the
    backend (defaults to [fun _ -> false]); [flush] pushes any buffered
    dirty pages down (defaults to a no-op). Used by {!Bufpool} to
    interpose a decrypted-page cache. [read_batch] (set only by
    {!secure}) lets {!scan} read in windows; without it {!scan} reads
    page by page. *)

val read : t -> int -> string
(** Fires the observer (with [~cached] reporting whether this read is
    served from a buffer), then reads (decrypting/verifying if
    secure). *)

val window : int
(** Pages per batched read in {!scan}. *)

val scan : t -> int list -> f:(int -> string -> unit) -> unit
(** [scan t pages ~f] calls [f page payload] for each page in order,
    firing the observer before each, as a loop of {!read} calls would;
    a failing page raises at its own position. With a [read_batch] the
    pages are read in windows, and when there is more than one window
    the next is verified on a helper domain
    ({!Ironsafe_crypto.Lanes.with_helper}) while [f] consumes the
    current one; a secure store refuses writes meanwhile. *)

val write : t -> int -> string -> unit

val allocate : t -> int
(** Next free page index. *)

val page_count : t -> int
(** Pages allocated so far. *)

val capacity : t -> int
(** Payload bytes per page for this backend. *)

val cached : t -> int -> bool
(** Whether a read of this page would be served from a buffer. *)

val flush : t -> unit
(** Push buffered dirty pages to the backend (no-op if unbuffered). *)

val set_observer : t -> Observer.t -> unit
