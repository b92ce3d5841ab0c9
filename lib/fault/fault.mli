(** Deterministic, seeded fault injection scheduled on the virtual
    clock.

    A {!t} (fault plan) maps injection {!site}s to firing rules
    (probability, budget, earliest virtual time). The stack's natural
    failure points consult the plan — [Channel] record handling,
    [Block_device] page I/O, [Rpmb] frame processing, the SGX/TrustZone
    models and the runner — and the recovery layer turns fired faults
    into retries, re-reads, re-attestations or typed rejections.

    Every decision is drawn from a splitmix64 stream derived from the
    plan seed, so a given seed + workload replays the exact same
    incident timeline. The shared {!none} plan has no rules: every hook
    is a cheap [match] returning [false], keeping the fault machinery
    zero-cost when disabled. *)

type site =
  | Channel_corrupt  (** in-flight record bit-flip (detected by MAC) *)
  | Channel_drop  (** record lost in flight *)
  | Channel_handshake  (** TLS session establishment failure *)
  | Device_bit_rot  (** persistent byte flip in a stored page *)
  | Device_torn_write  (** page write persists only its first half *)
  | Device_read_transient  (** one read returns corrupted data *)
  | Rpmb_desync  (** RPMB write counter desynchronizes (replay defence) *)
  | Sgx_abort  (** enclave dies mid-ECALL *)
  | Sgx_quote_reject  (** attestation quote fails verification once *)
  | Sgx_epc_storm  (** burst of EPC paging faults *)
  | Tz_world_switch  (** secure-world switch fails *)
  | Tz_ta_crash  (** trusted application crashes mid-request *)
  | Wal_crash_before_append
      (** crash before a record's bytes reach the log device *)
  | Wal_crash_mid_append
      (** crash with only a prefix of the record frame persisted (torn
          append) *)
  | Wal_crash_after_append
      (** crash right after a record frame is fully persisted *)
  | Wal_crash_mid_flush
      (** crash between the group's device writes and the chain-MAC
          anchor computation (mid-group-commit) *)
  | Wal_crash_before_anchor
      (** crash between the chain-MAC update and the RPMB counter bump *)
  | Wal_torn_checkpoint
      (** checkpoint write-back persists a torn base page, then crashes *)

val site_name : site -> string
(** Stable dotted name, e.g. ["device.bit_rot"] (used in counters,
    incident reports and violations). *)

val all_sites : site list

val wal_sites : site list
(** The WAL crash points in log order; the crash-at-every-point
    recovery property iterates exactly this list. *)

type rule = { prob : float; max_fires : int; after_ns : float }

val rule : ?prob:float -> ?max_fires:int -> ?after_ns:float -> unit -> rule
(** Defaults: [prob = 1.0], [max_fires = max_int], [after_ns = 0.0]. *)

type incident = {
  inc_site : site;
  inc_at_ns : float;  (** virtual time at injection *)
  mutable inc_recovered : bool;
}

type stats = {
  mutable injected : int;
  mutable recovered : int;
  mutable rejected : int;
  mutable retries : int;
  mutable reattestations : int;
}

type t

val none : t
(** The empty plan: nothing ever fires, notes are no-ops. *)

val make : ?clock:(unit -> float) -> seed:int -> (site * rule) list -> t

val enabled : t -> bool
(** [false] exactly for plans with no rules (e.g. {!none}). *)

val seed : t -> int

val set_clock : t -> (unit -> float) -> unit
(** Wire the virtual clock used for [after_ns] scheduling and incident
    timestamps (the deployment points this at its simulated nodes). *)

val fire : t -> site -> bool
(** Roll the site's rule against the deterministic stream; a fired
    fault is recorded as an incident and counted ([fault.injected]). *)

val rand_int : t -> int -> int
(** Deterministic integer in [\[0, bound)] from the plan stream (used
    to pick corruption offsets). *)

val stats : t -> stats
val incident_count : t -> int

val incidents_since : t -> int -> incident list
(** Incidents recorded after a previous {!incident_count} mark,
    chronological. *)

val last_unrecovered : t -> incident option

(* Recovery notes: the recovery layer reports what it did so incident
   timelines, the obs counters under the [recovery] scope and the bench
   faults section agree. All are no-ops on a disabled plan. *)

val note_retry : ?n:int -> t -> action:string -> unit
val note_reattestation : t -> unit

val note_recovered : t -> unit
(** Marks the oldest unrecovered incident as recovered. *)

val note_recovered_since : t -> int -> unit
(** Marks every incident recorded after the given {!incident_count}
    mark as recovered — the precise form for recovery loops that
    overcome several fired faults before finally succeeding. *)

val note_recovered_between : t -> int -> int -> unit
(** [note_recovered_between t lo hi] marks the incidents recorded
    between marks [lo] and [hi] as recovered — for a batched read,
    whose pages' first attempts were all made before any re-read. *)

val note_rejected : t -> unit

val backoff_ns : base_ns:float -> attempt:int -> float
(** Bounded exponential backoff: [base * 2^attempt], capped at
    [1000 * base]. Charged to virtual clocks by callers. *)

val pp_incident : Format.formatter -> incident -> unit
val pp_stats : Format.formatter -> stats -> unit

(** Named fault profiles for the CLI / bench / CI. *)
type profile = Profile_none | Flaky_net | Bit_rot | Hostile

val profile_of_string : string -> profile option
val profile_name : profile -> string
val all_profiles : profile list

val of_profile : ?clock:(unit -> float) -> seed:int -> profile -> t
(** [of_profile ~seed Profile_none] is {!none}. *)
