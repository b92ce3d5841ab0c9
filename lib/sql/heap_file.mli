(** Heap files: rows packed into pager pages in insertion order. *)

type t

val create : pager:Pager.t -> schema:Schema.t -> t
val schema : t -> Schema.t
val row_count : t -> int
val page_count : t -> int

val append : t -> Row.t -> unit

val append_page : t -> Row.t -> int
(** Append and return the page the row landed on (index maintenance). *)

val append_all : t -> Row.t list -> unit

val flush : t -> unit
(** Persist any buffered rows. *)

val iter : t -> f:(Row.t -> unit) -> unit
(** Full scan in storage order (flushes first). *)

val iter_pages : t -> int list -> f:(page:int -> Row.t -> unit) -> unit
(** Scan only the given pages (index-driven access path), through
    {!Pager.scan}: on a secure pager the pages are read and verified in
    windows, the next window on a helper domain while [f] consumes the
    current one. A failing page raises after the rows of the pages
    before it were delivered. *)

val to_list : t -> Row.t list

val rewrite : t -> f:(Row.t -> [ `Keep | `Replace of Row.t | `Delete ]) -> int
(** In-place rewrite for UPDATE/DELETE; returns affected row count. *)

val stored_pages : t -> int list
(** Page ids backing this file, in scan order. *)

val reload : t -> unit
(** Rebuild the volatile write cursor and row count from the
    on-storage image, discarding buffered rows and any trailing page
    the pager can no longer serve. Used after the backing store has
    been crash-recovered underneath the file: the storage image (only
    durably committed rows) becomes the truth again. Only decode /
    out-of-range failures are treated as the rolled-back tail; a
    {!Pager.Integrity_failure} (tampered page) propagates. *)
