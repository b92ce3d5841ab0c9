(** A scan-scoped helper domain for data-parallel crypto work: the
    caller publishes a job of independent items, a helper domain works
    through them, and the caller runs whatever the helper has not
    reached. *)

val available : unit -> int
(** Number of hardware lanes worth using
    ({!Domain.recommended_domain_count}); 1 on a single-core host. *)

val with_helper : (unit -> 'a) -> 'a
(** [with_helper body] runs [body] with one helper domain serving the
    jobs it submits, and joins the helper when [body] returns or
    raises. Nothing is spawned when [available () < 2] or when this
    domain is already inside a [with_helper] scope (the nested scope
    shares the outer helper). *)

type job

val submit : int -> (int -> unit) -> job
(** [submit n f] publishes the items [f 0 .. f (n - 1)] to the current
    scope's helper, which starts on them at once; outside a scope it
    only records them. Items may run on either domain, each exactly
    once, so they must touch only immutable state or state of their
    own item. *)

val await : job -> unit
(** Run the items nobody has claimed yet on the calling domain, then
    wait for those the helper is running. Every effect of the job's
    items is visible on return. Re-raises the first exception an item
    raised. *)

val cancel : job -> unit
(** Drop the items nobody has claimed and wait for those already
    running, so none is running on return. *)
