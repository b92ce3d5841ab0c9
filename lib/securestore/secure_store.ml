(* Encrypted, integrity- and freshness-protected page store (§4.1).

   On-device layout:
     pages [0, data_pages)                   data region
     pages [data_pages, data_pages + meta)   Merkle leaf-tag region

   Each data page holds:  IV(16) | MAC(32) | len(2) | ciphertext | fill
   MAC = HMAC(page_mac_key, index | IV | ciphertext): binds the
   ciphertext to its slot. Leaf tags feed a keyed Merkle tree whose
   root, HMACed under TASK (a key derived from the hardware unique
   key), lives in RPMB — so rollback of either data or metadata region
   is caught against the replay-protected counter'd slot.

   [stats] counts every crypto operation so the simulator can charge
   freshness/decryption time exactly as incurred. *)

module C = Ironsafe_crypto
module S = Ironsafe_storage
module Obs = Ironsafe_obs.Obs
module Fault = Ironsafe_fault.Fault

(* metrics scope for the observability registry *)
let obs_scope = "securestore"

let header_len = 16 + 32 + 2

(* Plaintext capacity: page minus header minus up-to-one-block CBC
   padding expansion. *)
let capacity = S.Block_device.page_size - header_len - 16

type stats = {
  mutable page_decrypts : int;
  mutable page_encrypts : int;
  mutable page_mac_checks : int;
  mutable merkle_hashes : int;
  mutable rpmb_accesses : int;
  mutable device_reads : int;
  mutable device_writes : int;
}

let fresh_stats () =
  {
    page_decrypts = 0;
    page_encrypts = 0;
    page_mac_checks = 0;
    merkle_hashes = 0;
    rpmb_accesses = 0;
    device_reads = 0;
    device_writes = 0;
  }

type error =
  | Tampered_page of int
  | Stale_root
  | Rpmb_error of S.Rpmb.error
  | Corrupt_page of int * string

let pp_error ppf = function
  | Tampered_page i -> Fmt.pf ppf "page %d failed integrity/freshness check" i
  | Stale_root -> Fmt.string ppf "Merkle root does not match RPMB anchor (rollback?)"
  | Rpmb_error e -> Fmt.pf ppf "RPMB: %a" S.Rpmb.pp_error e
  | Corrupt_page (i, msg) -> Fmt.pf ppf "page %d corrupt: %s" i msg

(* Key management scheme (§4.1: "IronSafe uses a single secret
   (symmetric) key to encrypt all the data units, but other management
   schemes can be adopted (e.g., one key per unit)"). [Per_page]
   derives each page's AES key from the data key and the page index,
   bounding the blast radius of a single page-key compromise. *)
type key_mode = Single_key | Per_page_keys

(* Page cipher mode. CBC is the paper's SQLCipher-style default; CTR
   keeps the MAC-then-anchor layout bit-for-bit identical (the nonce
   simply lives in the IV slot and is MACed the same way) but makes
   each 16-byte block of a page independently decryptable. *)
type page_mode = Cbc | Ctr

type t = {
  device : S.Block_device.t;
  rpmb : S.Rpmb.t;
  keys : Keyslot.t;
  key_mode : key_mode;
  page_mode : page_mode;
  mutable write_epoch : int;
      (* monotone per-store write counter; CTR nonces derive from it *)
  nonce_salt : string;
      (* 16 DRBG bytes drawn per boot (CTR mode only): nonces stay
         unique across reboots without persisting the epoch counter *)
  enc_key : C.Aes.key; (* Single_key mode *)
  mutable page_keys : C.Aes.key option array; (* Per_page_keys cache *)
  merkle : C.Merkle.t;
  drbg : C.Drbg.t;
  data_pages : int;
  stats : stats;
  mutable anchored_root : string; (* last root HMAC written to RPMB *)
  page_mac_prekey : C.Hmac.prekey; (* page MAC key, ipad/opad absorbed once *)
  task_prekey : C.Hmac.prekey; (* TASK key, for the anchored-root MAC *)
  mutable root_mac_memo : (string * string) option;
      (* (root, HMAC_TASK(root)) of the last root MAC computed: every
         page read must compare the current root's MAC against the
         RPMB anchor, but between writes the root does not move, so
         the HMAC is recomputed only when the root value changes. Keyed
         on the root bytes themselves, the memo can never serve a MAC
         for a root other than the current one — a write or an RPMB
         resync changes the root (or the anchor) and misses the memo. *)
  mutable faults : Fault.t;
      (* fault plan shared with the device/RPMB; gates the recovery
         paths (re-read, counter re-sync) so they stay inert — and
         genuine attacks stay hard failures — without a plan *)
  mutable batches_in_flight : int;
      (* batched reads fetched and not yet released: their pages may be
         verifying on another domain, reading the tree, so no write may
         move it *)
}

let set_faults t plan = t.faults <- plan

(* Bounded retry budgets of the recovery layer (§ robustness): how many
   times a failed page read is re-attempted and a desynced RPMB write
   is re-synced before the error is surfaced as a typed violation. *)
let read_retry_budget = 3
let rpmb_retry_budget = 3

let page_key t index =
  match t.key_mode with
  | Single_key -> t.enc_key
  | Per_page_keys -> (
      match t.page_keys.(index) with
      | Some k -> k
      | None ->
          let k =
            C.Aes.expand_key
              (C.Hkdf.derive
                 ~ikm:(Keyslot.data_key t.keys)
                 ~info:(Printf.sprintf "page-enc-%d" index)
                 32)
          in
          t.page_keys.(index) <- Some k;
          k)

let data_key_slot = 0
let root_slot = 1
let tags_per_page = S.Block_device.page_size / 32

let meta_pages_for data_pages = (data_pages + tags_per_page - 1) / tags_per_page
let device_pages_for ~data_pages = data_pages + meta_pages_for data_pages
let data_page_count t = t.data_pages
let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.page_decrypts <- 0;
  s.page_encrypts <- 0;
  s.page_mac_checks <- 0;
  s.merkle_hashes <- 0;
  s.rpmb_accesses <- 0;
  s.device_reads <- 0;
  s.device_writes <- 0

let root_mac keys root = C.Hmac.mac ~key:(Keyslot.task_key keys) root

(* Memoized [root_mac t.keys (Merkle.root t.merkle)]: hit when the
   root is unchanged since the last computation, recomputed (and
   re-memoized) otherwise. *)
let current_root_mac t =
  let root = C.Merkle.root t.merkle in
  match t.root_mac_memo with
  | Some (r, m) when String.equal r root -> m
  | _ ->
      let m = C.Hmac.mac_pre t.task_prekey root in
      t.root_mac_memo <- Some (root, m);
      m

let anchor_root t =
  let mac = current_root_mac t in
  let mark = Fault.incident_count t.faults in
  let rec attempt n =
    let frame =
      S.Rpmb.make_write_frame
        ~key:(Keyslot.rpmb_auth_key t.keys)
        ~slot:root_slot ~payload:mac
        ~write_counter:(S.Rpmb.read_counter t.rpmb)
    in
    t.stats.rpmb_accesses <- t.stats.rpmb_accesses + 1;
    Obs.count ~scope:obs_scope "rpmb_accesses";
    match S.Rpmb.write t.rpmb frame with
    | Ok _ ->
        if n > 0 then Fault.note_recovered_since t.faults mark;
        t.anchored_root <- mac;
        Ok ()
    | Error (S.Rpmb.Counter_mismatch _)
      when Fault.enabled t.faults && n < rpmb_retry_budget ->
        (* counter desync: re-read the device counter and rebuild the
           frame (the frame above always refetches [read_counter]) *)
        Fault.note_retry t.faults ~action:"rpmb.resync";
        attempt (n + 1)
    | Error e -> Error (Rpmb_error e)
  in
  attempt 0

let persist_leaf_tag t index =
  let tag = C.Merkle.leaf t.merkle index in
  let meta_page = t.data_pages + (index / tags_per_page) in
  let page = Bytes.of_string (S.Block_device.read_page t.device meta_page) in
  t.stats.device_reads <- t.stats.device_reads + 1;
  Bytes.blit_string tag 0 page (index mod tags_per_page * 32) 32;
  S.Block_device.write_page t.device meta_page (Bytes.to_string page);
  t.stats.device_writes <- t.stats.device_writes + 1

(* MAC input: index | IV | ciphertext, read in place from the page
   image (IV at 0, ciphertext at [header_len]) as slices of the
   prekeyed HMAC, so neither the concatenation nor the ciphertext is
   ever copied out. *)
let page_mac t index page clen =
  let slot = Printf.sprintf "%08d" index in
  C.Hmac.mac_pre_slices t.page_mac_prekey
    [ (slot, 0, String.length slot); (page, 0, 16); (page, header_len, clen) ]

let page_mode t = t.page_mode

(* CTR nonce for one page write: hash of (boot salt, page id, epoch).
   The epoch bumps on every write and the salt is fresh per boot, so no
   (key, nonce) pair ever recurs — the CTR keystream is never reused
   even when the same page is rewritten, or written again after a
   reboot that restarts the epoch counter. The nonce travels in the
   page's IV slot and is bound by the page MAC exactly like a CBC IV. *)
let ctr_nonce t index =
  t.write_epoch <- t.write_epoch + 1;
  String.sub
    (C.Sha256.digest_list
       [
         "ironsafe-ctr-nonce";
         t.nonce_salt;
         Printf.sprintf "%08d|%016x" index t.write_epoch;
       ])
    0 16

(* Mode-dispatched page cipher. CTR ciphertext is plaintext-length
   (no padding); both fit the shared len field and leave [capacity]
   unchanged, so page packing is identical across modes. *)
let encrypt_payload t index ~iv plain =
  match t.page_mode with
  | Cbc -> C.Modes.cbc_encrypt ~key:(page_key t index) ~iv plain
  | Ctr -> C.Modes.ctr_transform ~key:(page_key t index) ~nonce:iv plain

(* Decrypt the ciphertext of a verified page image in place. *)
let decrypt_page t index page clen =
  let iv = String.sub page 0 16 in
  match t.page_mode with
  | Cbc -> (
      match
        C.Modes.cbc_decrypt_sub ~key:(page_key t index) ~iv page header_len clen
      with
      | Ok plain -> Ok plain
      | Error msg -> Error (Corrupt_page (index, msg)))
  | Ctr ->
      let plain = Bytes.create clen in
      C.Modes.ctr_transform_into ~key:(page_key t index) ~nonce:iv page
        header_len plain 0 clen;
      Ok (Bytes.unsafe_to_string plain)

(* Encrypt and store [plain] (<= capacity bytes) at data page [index]. *)
let write_page t index plain =
  if index < 0 || index >= t.data_pages then
    invalid_arg "Secure_store.write_page: index out of range";
  if String.length plain > capacity then
    invalid_arg "Secure_store.write_page: payload exceeds page capacity";
  if t.batches_in_flight > 0 then
    invalid_arg "Secure_store.write_page: a batched read is in flight";
  Obs.count ~scope:obs_scope "pages_written";
  let iv =
    match t.page_mode with
    | Cbc -> C.Drbg.generate t.drbg 16
    | Ctr -> ctr_nonce t index
  in
  let ciphertext = encrypt_payload t index ~iv plain in
  t.stats.page_encrypts <- t.stats.page_encrypts + 1;
  Obs.count ~scope:obs_scope "page_encrypts";
  let clen = String.length ciphertext in
  let page = Bytes.make S.Block_device.page_size '\000' in
  Bytes.blit_string iv 0 page 0 16;
  Bytes.set page 48 (Char.chr (clen lsr 8));
  Bytes.set page 49 (Char.chr (clen land 0xff));
  Bytes.blit_string ciphertext 0 page header_len clen;
  (* the MAC does not cover its own field, so it is taken over the
     image before that field is filled in *)
  let mac = page_mac t index (Bytes.unsafe_to_string page) clen in
  t.stats.page_mac_checks <- t.stats.page_mac_checks + 1;
  Obs.count ~scope:obs_scope "hmac_checks";
  Bytes.blit_string mac 0 page 16 32;
  S.Block_device.write_page t.device index (Bytes.to_string page);
  t.stats.device_writes <- t.stats.device_writes + 1;
  C.Merkle.reset_hash_ops t.merkle;
  C.Merkle.set_leaf t.merkle index mac;
  t.stats.merkle_hashes <- t.stats.merkle_hashes + C.Merkle.hash_ops t.merkle;
  persist_leaf_tag t index;
  anchor_root t

(* Ciphertext length of a raw page image, if it fits the page. *)
let ciphertext_len raw =
  let clen = (Char.code raw.[48] lsl 8) lor Char.code raw.[49] in
  if clen > S.Block_device.page_size - header_len then None else Some clen

let corrupt_length index =
  Error (Corrupt_page (index, "ciphertext length field out of range"))

(* -- verified reads ---------------------------------------------------

   A verified read runs in three phases, so that the middle one can run
   on any domain:

     1. fetch (caller, in page order): the device read with its fault
        hooks, its stats and Obs counts, the per-page key prefetch and
        the root MAC memo;
     2. verify (pure): the page MAC, the full Merkle path, the
        root-vs-anchor compare and the decrypt. It reads only the
        fetched image and state that no one mutates while a batch is
        in flight (the tree, the keys, the anchored root), and returns
        what it did as a [verdict];
     3. fold (caller, in page order): the stats and Obs counts of the
        verdict, then the fault-plan re-reads.

   [read_page] runs the three back to back; {!Batch} runs phase 1 over
   a window of pages, lets phase 2 run on a helper domain, and folds in
   page order. Either way each page costs exactly one device read, one
   MAC, [depth] Merkle HMACs and one decrypt. *)

type verdict = {
  result : (string, error) result;
  mac_checked : bool;
  path_hashes : int option; (* HMACs of the Merkle climb, if it ran *)
  decrypted : bool;
}

(* Phase 1 for one in-range page: its raw device image. *)
let fetch t index =
  Obs.count ~scope:obs_scope "pages_read";
  let raw = S.Block_device.read_page t.device index in
  t.stats.device_reads <- t.stats.device_reads + 1;
  (* per-page keys are a lazily filled cache: fill it here so that
     phase 2 only reads it *)
  ignore (page_key t index);
  raw

(* Phase 2: the MAC and the decryption read the ciphertext in place
   from the raw page. [root_mac] is the current root's MAC, computed in
   phase 1. *)
let verify_raw t ~root_mac index raw =
  match ciphertext_len raw with
  | None ->
      {
        result = corrupt_length index;
        mac_checked = false;
        path_hashes = None;
        decrypted = false;
      }
  | Some clen ->
      let mac = String.sub raw 16 32 in
      (* 1. page integrity: MAC over index|IV|ciphertext *)
      if not (C.Constant_time.equal (page_mac t index raw clen) mac) then
        {
          result = Error (Tampered_page index);
          mac_checked = true;
          path_hashes = None;
          decrypted = false;
        }
      else begin
        (* 2. freshness: the Merkle path from this leaf must reach the
           current root, and that root must be the anchored one *)
        let ok, hashes = C.Merkle.verify_path t.merkle index ~leaf_tag:mac in
        let checked result decrypted =
          { result; mac_checked = true; path_hashes = Some hashes; decrypted }
        in
        if not ok then checked (Error (Tampered_page index)) false
        else if not (C.Constant_time.equal root_mac t.anchored_root) then
          checked (Error Stale_root) false
        else (* 3. decrypt *)
          checked (decrypt_page t index raw clen) true
      end

(* Phase 3: account for what phase 2 did. *)
let fold t v =
  if v.mac_checked then begin
    t.stats.page_mac_checks <- t.stats.page_mac_checks + 1;
    Obs.count ~scope:obs_scope "hmac_checks"
  end;
  Option.iter
    (fun hashes ->
      t.stats.merkle_hashes <- t.stats.merkle_hashes + hashes;
      Obs.count ~scope:obs_scope "merkle_verifies")
    v.path_hashes;
  if v.decrypted then begin
    t.stats.page_decrypts <- t.stats.page_decrypts + 1;
    Obs.count ~scope:obs_scope "page_decrypts"
  end;
  v.result

let read_page_once t index =
  let raw = fetch t index in
  fold t (verify_raw t ~root_mac:(current_root_mac t) index raw)

(* Recovery: a MAC/Merkle mismatch or corrupt page is re-read and
   re-verified up to [read_retry_budget] times (transient media faults
   heal; genuine tampering and bit rot keep failing and surface as the
   typed error). Only active under a fault plan, so without one a
   failed [first] attempt is the answer. [heal] marks the incidents of
   the attempts recovered. *)
let with_rereads t index first ~heal =
  let rec attempt n = function
    | Ok plain ->
        if n > 0 then heal ();
        Ok plain
    | Error (Tampered_page _ | Corrupt_page _)
      when Fault.enabled t.faults && n < read_retry_budget ->
        Fault.note_retry t.faults ~action:"securestore.reread";
        Obs.count ~scope:obs_scope "page_rereads";
        attempt (n + 1) (read_page_once t index)
    | Error e -> Error e
  in
  attempt 0 first

let in_range t index = index >= 0 && index < t.data_pages

let read_page t index =
  if not (in_range t index) then
    invalid_arg "Secure_store.read_page: index out of range";
  let mark = Fault.incident_count t.faults in
  with_rereads t index (read_page_once t index) ~heal:(fun () ->
      Fault.note_recovered_since t.faults mark)

module Batch = struct
  type store = t

  type t = {
    store : store;
    pages : int array;
    raw : string array; (* "" for an out-of-range index *)
    marks : int array;
        (* fault incident count before each fetch, and after the last:
           slot k's first attempt owns incidents [marks.(k), marks.(k+1)) *)
    root_mac : string;
    verdicts : verdict array; (* [unverified] until phase 2 ran *)
    mutable released : bool;
  }

  let unverified =
    {
      result = Error Stale_root;
      mac_checked = false;
      path_hashes = None;
      decrypted = false;
    }

  let read store pages =
    let n = Array.length pages in
    let marks = Array.make (n + 1) 0 in
    let raw =
      Array.mapi
        (fun k index ->
          marks.(k) <- Fault.incident_count store.faults;
          if in_range store index then fetch store index else "")
        pages
    in
    marks.(n) <- Fault.incident_count store.faults;
    store.batches_in_flight <- store.batches_in_flight + 1;
    {
      store;
      pages;
      raw;
      marks;
      root_mac = current_root_mac store;
      verdicts = Array.make n unverified;
      released = false;
    }

  let verify b k =
    let index = b.pages.(k) in
    if in_range b.store index then
      b.verdicts.(k) <-
        verify_raw b.store ~root_mac:b.root_mac index b.raw.(k)

  let take b k =
    let t = b.store and index = b.pages.(k) in
    if not (in_range t index) then
      invalid_arg "Secure_store.read_page: index out of range";
    if b.verdicts.(k) == unverified then verify b k;
    let mark = Fault.incident_count t.faults in
    with_rereads t index (fold t b.verdicts.(k)) ~heal:(fun () ->
        Fault.note_recovered_between t.faults b.marks.(k) b.marks.(k + 1);
        Fault.note_recovered_since t.faults mark)

  let release b =
    if not b.released then begin
      b.released <- true;
      b.store.batches_in_flight <- b.store.batches_in_flight - 1
    end
end

(* First-time initialization: generate data key, persist it to RPMB,
   build an empty Merkle tree over zeroed leaf tags. *)
let initialize ?(key_mode = Single_key) ?(page_mode = Cbc) ~device ~rpmb
    ~hardware_key ~data_pages ~drbg () =
  if device_pages_for ~data_pages > S.Block_device.page_count device then
    invalid_arg "Secure_store.initialize: device too small for data + metadata";
  let keys = Keyslot.generate ~hardware_key drbg in
  (match S.Rpmb.program_key rpmb (Keyslot.rpmb_auth_key keys) with
  | Ok () | Error S.Rpmb.Key_already_programmed -> ()
  | Error e -> invalid_arg (Fmt.str "Secure_store.initialize: %a" S.Rpmb.pp_error e));
  let key_frame =
    S.Rpmb.make_write_frame
      ~key:(Keyslot.rpmb_auth_key keys)
      ~slot:data_key_slot
      ~payload:(Keyslot.data_key keys)
      ~write_counter:(S.Rpmb.read_counter rpmb)
  in
  match S.Rpmb.write rpmb key_frame with
  | Error e -> Error (Rpmb_error e)
  | Ok _ ->
      let merkle =
        C.Merkle.create ~key:(Keyslot.page_mac_key keys) ~leaves:data_pages
      in
      let t =
        {
          device;
          rpmb;
          keys;
          key_mode;
          page_mode;
          write_epoch = 0;
          (* drawn only in CTR mode so the CBC DRBG stream — and with
             it every CBC ciphertext — is unchanged by mode selection *)
          nonce_salt =
            (match page_mode with
            | Cbc -> ""
            | Ctr -> C.Drbg.generate drbg 16);
          enc_key = C.Aes.expand_key (Keyslot.page_enc_key keys);
          page_keys = Array.make data_pages None;
          page_mac_prekey = C.Hmac.precompute ~key:(Keyslot.page_mac_key keys);
          task_prekey = C.Hmac.precompute ~key:(Keyslot.task_key keys);
          root_mac_memo = None;
          merkle;
          drbg;
          data_pages;
          stats = fresh_stats ();
          anchored_root = "";
          faults = Fault.none;
          batches_in_flight = 0;
        }
      in
      (* persist initial (empty) leaf tags *)
      for i = 0 to data_pages - 1 do
        persist_leaf_tag t i
      done;
      (match anchor_root t with Ok () -> () | Error _ -> assert false);
      reset_stats t;
      Ok t

(* Re-open after reboot: recover the data key from RPMB, rebuild the
   Merkle tree from the on-device leaf tags, and require the resulting
   root to match the RPMB anchor. A rolled-back or forked medium fails
   here with [Stale_root]. *)
let open_existing ?(key_mode = Single_key) ?(page_mode = Cbc) ~device ~rpmb
    ~hardware_key ~data_pages ~drbg () =
  let rpmb_key = Keyslot.derive_rpmb_auth_key ~hardware_key in
  let nonce = C.Drbg.generate drbg 16 in
  match S.Rpmb.read rpmb ~nonce data_key_slot with
  | Error e -> Error (Rpmb_error e)
  | Ok key_frame ->
      if not (S.Rpmb.verify_read_response ~key:rpmb_key ~nonce key_frame) then
        Error (Rpmb_error S.Rpmb.Bad_mac)
      else begin
        let data_key = String.sub key_frame.S.Rpmb.payload 0 32 in
        let keys = Keyslot.of_data_key ~hardware_key ~data_key in
        let merkle =
          C.Merkle.create ~key:(Keyslot.page_mac_key keys) ~leaves:data_pages
        in
        let t =
          {
            device;
            rpmb;
            keys;
            key_mode;
            page_mode;
            write_epoch = 0;
            nonce_salt =
              (match page_mode with
              | Cbc -> ""
              | Ctr -> C.Drbg.generate drbg 16);
            enc_key = C.Aes.expand_key (Keyslot.page_enc_key keys);
            page_keys = Array.make data_pages None;
            page_mac_prekey = C.Hmac.precompute ~key:(Keyslot.page_mac_key keys);
            task_prekey = C.Hmac.precompute ~key:(Keyslot.task_key keys);
            root_mac_memo = None;
            merkle;
            drbg;
            data_pages;
            stats = fresh_stats ();
            anchored_root = "";
            faults = Fault.none;
            batches_in_flight = 0;
          }
        in
        for i = 0 to data_pages - 1 do
          let meta_page = data_pages + (i / tags_per_page) in
          let raw = S.Block_device.read_page device meta_page in
          C.Merkle.set_leaf merkle i (String.sub raw (i mod tags_per_page * 32) 32)
        done;
        let nonce = C.Drbg.generate drbg 16 in
        match S.Rpmb.read rpmb ~nonce root_slot with
        | Error e -> Error (Rpmb_error e)
        | Ok root_frame ->
            if not (S.Rpmb.verify_read_response ~key:rpmb_key ~nonce root_frame)
            then Error (Rpmb_error S.Rpmb.Bad_mac)
            else begin
              let anchored = String.sub root_frame.S.Rpmb.payload 0 32 in
              if
                not
                  (C.Constant_time.equal
                     (root_mac keys (C.Merkle.root merkle))
                     anchored)
              then Error Stale_root
              else begin
                t.anchored_root <- anchored;
                reset_stats t;
                Ok t
              end
            end
      end
