(* A scan-scoped helper domain for data-parallel crypto work.

   [with_helper body] runs [body] with one helper domain alive beside
   the caller; the helper is joined when [body] returns or raises, so
   no domain outlives the scope. Inside it, [submit n f] publishes the
   items [f 0 .. f (n-1)] of a job. The helper and [await] both claim
   items from one atomic counter, so the caller runs whatever the
   helper has not reached and then waits only for the items the helper
   is still running.

   The helper is deliberately not pooled across scopes: a prototype
   that kept one idle OCaml 5.1 helper between scans raised the peak
   heap of a 2-core TPC-H run from ~390 to 460-500 MB. A scope nested
   inside another on the same domain shares the outer helper. On a host
   where [available () < 2], [with_helper] spawns nothing and every job
   runs inline in [await]. *)

let available () = Domain.recommended_domain_count ()

type helper = {
  m : Mutex.t;
  wake : Condition.t; (* a job was published, or the scope ended *)
  settled : Condition.t; (* a job's last item finished *)
  mutable job : job option; (* the latest job published *)
  mutable generation : int; (* bumped on each publish *)
  mutable stop : bool;
}

and job = {
  n : int;
  f : int -> unit;
  next : int Atomic.t; (* next unclaimed item *)
  finished : int Atomic.t; (* items run to completion (or dropped) *)
  failure : exn option Atomic.t; (* first exception an item raised *)
  owner : helper option;
}

(* Run one claimed item, record its exception, and wake a waiter when
   it was the job's last. *)
let run_item j i =
  (try j.f i
   with e -> ignore (Atomic.compare_and_set j.failure None (Some e)));
  if Atomic.fetch_and_add j.finished 1 = j.n - 1 then
    Option.iter
      (fun h ->
        Mutex.lock h.m;
        Condition.broadcast h.settled;
        Mutex.unlock h.m)
      j.owner

let rec drain j =
  let i = Atomic.fetch_and_add j.next 1 in
  if i < j.n then begin
    run_item j i;
    drain j
  end

let helper_loop h =
  let rec loop seen =
    Mutex.lock h.m;
    while h.generation = seen && not h.stop do
      Condition.wait h.wake h.m
    done;
    let stop = h.stop and job = h.job and gen = h.generation in
    Mutex.unlock h.m;
    if not stop then begin
      Option.iter drain job;
      loop gen
    end
  in
  loop 0

(* The helper of the scope this domain is running, if any. *)
let active : helper option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_helper body =
  if Option.is_some (Domain.DLS.get active) || available () < 2 then body ()
  else begin
    let h =
      {
        m = Mutex.create ();
        wake = Condition.create ();
        settled = Condition.create ();
        job = None;
        generation = 0;
        stop = false;
      }
    in
    match Domain.spawn (fun () -> helper_loop h) with
    | exception Failure _ -> body () (* no domain to be had: run inline *)
    | d ->
        Domain.DLS.set active (Some h);
        Fun.protect
          ~finally:(fun () ->
            Domain.DLS.set active None;
            Mutex.lock h.m;
            h.stop <- true;
            Condition.broadcast h.wake;
            Mutex.unlock h.m;
            Domain.join d)
          body
  end

let submit n f =
  let owner = Domain.DLS.get active in
  let j =
    {
      n;
      f;
      next = Atomic.make 0;
      finished = Atomic.make 0;
      failure = Atomic.make None;
      owner;
    }
  in
  Option.iter
    (fun h ->
      Mutex.lock h.m;
      h.job <- Some j;
      h.generation <- h.generation + 1;
      Condition.signal h.wake;
      Mutex.unlock h.m)
    owner;
  j

(* Wait until every item of [j] has finished or been dropped. *)
let settle j =
  match j.owner with
  | None -> ()
  | Some h ->
      Mutex.lock h.m;
      while Atomic.get j.finished < j.n do
        Condition.wait h.settled h.m
      done;
      Mutex.unlock h.m

let await j =
  drain j;
  settle j;
  Option.iter raise (Atomic.get j.failure)

let cancel j =
  let claimed = min j.n (Atomic.exchange j.next j.n) in
  ignore (Atomic.fetch_and_add j.finished (j.n - claimed));
  settle j
