(* Machine calibration. The benchmark runs on a shared host whose speed
   drifts for reasons outside the program: on the 2-core VM it was
   tuned on, the same TPC-H pass took 10 s in one hour and 15-21 s in
   another, and a pure-Python loop varied by 40% from one minute to the
   next. Wall times alone then differ between runs of the same code by
   more than any bound worth gating on.

   So every run also times a fixed reference kernel, interleaved with
   the workload between ops (never inside a timed op), and reports its
   timings divided by the host factor: the kernel's median time in this
   run over [reference_s], its time on that VM on a quiet hour
   ([Common.host_factor]). A timing then reads as "seconds at the
   reference speed". The raw wall times are printed on '#' lines.

   The kernel lives here, not in lib/, so no change to the library can
   move it. It uses no OCaml heap (Bigarray data is malloc'd), so the
   program's heap and GC state cannot move it either. It mixes what
   the host's slow spells were seen to slow down: a dependent
   arithmetic chain, random walks that fit in L2 and in L3, and
   streaming reads of 8 MB. *)

let now = Unix.gettimeofday

(* one random cycle through all [n] slots (Sattolo's algorithm), from
   a fixed seed *)
let cycle n =
  let a = Bigarray.(Array1.create int c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let l2 = lazy (cycle (1 lsl 15)) (* 256 KB *)
let l3 = lazy (cycle (1 lsl 20)) (* 8 MB *)

let walk a steps =
  let j = ref 0 in
  for _ = 1 to steps do
    j := a.{!j}
  done;
  !j

let stream a =
  let s = ref 0 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    s := !s + a.{i}
  done;
  !s

(* about 50 ms on the reference VM, half of it streaming: across the
   host's slow and fast hours, streaming slowed down most like the
   TPC-H workload did *)
let kernel () =
  let l2 = Lazy.force l2 and l3 = Lazy.force l3 in
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 1_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffff
  done;
  let r = ref (!x + walk l2 500_000 + walk l3 100_000) in
  for _ = 1 to 4 do
    r := !r + stream l3
  done;
  ignore (Sys.opaque_identity !r);
  now () -. t0

(* The kernel's median time on the reference VM on a quiet hour. *)
let reference_s = 0.052

(* at most one kernel per [every] seconds of workload *)
let every = 2.0
let samples = ref []
let last = ref neg_infinity
let spent = ref 0.0

(* Called by the workloads between ops, outside any timed op. A loop
   that times a stretch of ops subtracts the change in [spent_s ()]. *)
let tick () =
  if now () -. !last >= every then begin
    let t0 = now () in
    samples := kernel () :: !samples;
    last := now ();
    spent := !spent +. (!last -. t0)
  end

let spent_s () = !spent
