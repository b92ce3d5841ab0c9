(* Page access abstraction over the storage backends:
   - [in_memory]: host-side temporary tables;
   - [plain]: cleartext pages on a block device (non-secure configs);
   - [secure]: the encrypted/Merkle-verified store of IronSafe.

   Each pager exposes the payload capacity per page and a page
   allocator; the observer hook fires on every physical page access so
   the runner can charge I/O, decryption and freshness costs where the
   page was actually processed. A buffering layer (see {!Bufpool}) can
   interpose via [make]: its [cached] predicate tells the observer
   whether a read is served from memory, and [flush] pushes buffered
   dirty pages down to the backend.

   A backend whose reads split into a device phase and a pure
   verification phase (the secure store) also sets [read_batch]; [scan]
   then reads in windows and verifies the next window on a helper
   domain while the caller consumes the current one. *)

module Lanes = Ironsafe_crypto.Lanes

type batch = {
  verify : int -> unit;
  take : int -> string;
  release : unit -> unit;
}

type t = {
  capacity : int;
  read : int -> string;
  write : int -> string -> unit;
  allocate : unit -> int;
  page_count : unit -> int;
  cached : int -> bool;
      (* would a read of this page skip the backend? Always false for
         unbuffered pagers. *)
  flush : unit -> unit;
  read_batch : (int array -> batch) option;
  mutable observer : Observer.t;
}

let read t i =
  t.observer.Observer.on_page_read ~cached:(t.cached i);
  t.read i

let write t i data =
  t.observer.Observer.on_page_write ();
  t.write i data

let make ~capacity ~read ~write ~allocate ~page_count
    ?(cached = fun _ -> false) ?(flush = fun () -> ()) ?read_batch () =
  { capacity; read; write; allocate; page_count; cached; flush; read_batch;
    observer = Observer.null }

(* Pages per batched read: enough to amortize a hand-over to the helper
   (a few microseconds against ~100 us of verification per page), few
   enough that a scan of a small table still overlaps. *)
let window = 32

let rec windows = function
  | [] -> []
  | pages ->
      let rec split n acc = function
        | p :: rest when n < window -> split (n + 1) (p :: acc) rest
        | rest -> (Array.of_list (List.rev acc), rest)
      in
      let w, rest = split 0 [] pages in
      w :: windows rest

(* Batched scan: window k+1 is read from the device and handed to the
   helper before the caller delivers window k, so its verification
   overlaps the caller's decoding. The caller then verifies whatever of
   k+1 the helper has not reached. The observer fires per page, in
   order, just before the page is delivered, and a failing page raises
   at its own position — exactly as a loop of [read] calls would. *)
let scan_batched t fetch pages ~f =
  let live = ref [] in
  let start w =
    let b = fetch w in
    let job = Lanes.submit (Array.length w) b.verify in
    live := (b, job) :: !live;
    (w, b, job)
  in
  let retire (b, job) =
    Lanes.cancel job;
    b.release ();
    live := List.filter (fun (b', _) -> b' != b) !live
  in
  let rec go (w, b, job) rest =
    Lanes.await job;
    let next =
      match rest with [] -> None | w' :: rest' -> Some (start w', rest')
    in
    Array.iteri
      (fun k page ->
        t.observer.Observer.on_page_read ~cached:(t.cached page);
        f page (b.take k))
      w;
    retire (b, job);
    Option.iter (fun (n, rest') -> go n rest') next
  in
  let run ws () =
    Fun.protect
      ~finally:(fun () -> List.iter retire !live)
      (fun () -> match ws with [] -> () | w :: rest -> go (start w) rest)
  in
  match windows pages with
  | ([] | [ _ ]) as ws -> run ws ()
  | ws -> Lanes.with_helper (run ws)

let scan t pages ~f =
  match t.read_batch with
  | Some fetch -> scan_batched t fetch pages ~f
  | None -> List.iter (fun i -> f i (read t i)) pages

let in_memory () =
  let pages : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  make ~capacity:4096
    ~read:(fun i ->
      match Hashtbl.find_opt pages i with
      | Some p -> p
      | None -> String.make 4096 '\000')
    ~write:(fun i data -> Hashtbl.replace pages i data)
    ~allocate:(fun () ->
      let i = !next in
      incr next;
      i)
    ~page_count:(fun () -> !next)
    ()

let plain device =
  let next = ref 0 in
  make ~capacity:Ironsafe_storage.Block_device.page_size
    ~read:(fun i -> Ironsafe_storage.Block_device.read_page device i)
    ~write:(fun i data ->
      let ps = Ironsafe_storage.Block_device.page_size in
      let padded =
        if String.length data = ps then data
        else data ^ String.make (ps - String.length data) '\000'
      in
      Ironsafe_storage.Block_device.write_page device i padded)
    ~allocate:(fun () ->
      let i = !next in
      incr next;
      i)
    ~page_count:(fun () -> !next)
    ()

exception Integrity_failure of string

let secure store =
  let module Sec = Ironsafe_securestore.Secure_store in
  let ok = function
    | Ok data -> data
    | Error e -> raise (Integrity_failure (Fmt.str "%a" Sec.pp_error e))
  in
  let next = ref 0 in
  make ~capacity:Sec.capacity
    ~read:(fun i -> ok (Sec.read_page store i))
    ~write:(fun i data -> ok (Sec.write_page store i data))
    ~allocate:(fun () ->
      let i = !next in
      incr next;
      i)
    ~page_count:(fun () -> !next)
    ~read_batch:(fun pages ->
      let b = Sec.Batch.read store pages in
      {
        verify = Sec.Batch.verify b;
        take = (fun k -> ok (Sec.Batch.take b k));
        release = (fun () -> Sec.Batch.release b);
      })
    ()

let set_observer t obs = t.observer <- obs
let capacity t = t.capacity
let allocate t = t.allocate ()
let page_count t = t.page_count ()
let cached t i = t.cached i
let flush t = t.flush ()
