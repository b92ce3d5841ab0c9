(* Shared pieces of the wall-clock benchmark: the clock, order
   statistics, failure accounting, the metric record every workload
   returns, and deployment set-up with its per-layer split. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Sec = Ironsafe_securestore

let now = Unix.gettimeofday
let scale = 0.01

(* The deployment seed is fixed: the workload seed only changes the
   generated SQL and specs, never the data or the keys. *)
let deployment_seed = "wallbench"
let client = "bench"

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- order statistics ---------------------------------------------- *)

let sorted l = List.sort Float.compare l

(* nearest-rank percentile over a non-empty list *)
let percentile p l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean l =
  match l with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0.0 l

(* how much slower than the reference speed the host ran during this
   run: see Calib *)
let host_factor () =
  match !Calib.samples with
  | [] -> failwith "wallbench: no calibration sample"
  | l -> median l /. Calib.reference_s

(* in-place Fisher-Yates *)
let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Ironsafe_sim.Prng.rand_int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* -- run length ----------------------------------------------------- *)

(* A run measures a fixed number of whole passes, never "until the
   clock runs out": on a machine whose speed drifts, a time-bounded run
   does less work when the machine is slow, and on oltp_wal, where the
   table grows as the run goes on, less work is also cheaper work.
   [passes ~seconds ~pass_s ~min] is how many passes of a typical
   length [pass_s] (on the 2-core machine the benchmark was tuned on)
   fill [seconds], and at least [min]. *)
let passes ~seconds ~pass_s ~min =
  max min (int_of_float (Float.round (seconds /. pass_s)))

(* -- op accounting ------------------------------------------------- *)

(* Latencies of successful ops, grouped by op kind (a TPC-H query, an
   OLTP statement type, a scheduler load point). A failed op is
   counted against [attempted] and in the reason histogram, never in a
   latency. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;
  kinds : (string, float list) Hashtbl.t;  (** kind -> latencies, s *)
}

let new_ops () =
  { attempted = 0; failed = 0; reasons = Hashtbl.create 8; kinds = Hashtbl.create 32 }

let ok ops ~kind s =
  ops.attempted <- ops.attempted + 1;
  Hashtbl.replace ops.kinds kind
    (s :: Option.value ~default:[] (Hashtbl.find_opt ops.kinds kind))

let fail ops ~reason =
  ops.attempted <- ops.attempted + 1;
  ops.failed <- ops.failed + 1;
  Hashtbl.replace ops.reasons reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt ops.reasons reason))

(* an op already counted as successful turns out failed (a lost
   acknowledged write found after reboot): move it *)
let revoke ops ~kind ~latency ~reason =
  (match Hashtbl.find_opt ops.kinds kind with
  | Some l ->
      let rec drop = function
        | [] -> []
        | x :: tl -> if x = latency then tl else x :: drop tl
      in
      Hashtbl.replace ops.kinds kind (drop l)
  | None -> ());
  ops.attempted <- ops.attempted - 1;
  fail ops ~reason

(* Error strings carry page numbers and keys; fold them out so equal
   causes share a histogram bucket. *)
let reason_of msg =
  String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) msg

let reason_count ops r = Option.value ~default:0 (Hashtbl.find_opt ops.reasons r)

let kind_medians ops =
  Hashtbl.fold
    (fun k l acc -> if l = [] then acc else (k, median l) :: acc)
    ops.kinds []
  |> List.sort compare

let pp_reasons ops =
  let l = Hashtbl.fold (fun r n acc -> (r, n) :: acc) ops.reasons [] in
  List.iter
    (fun (r, n) -> Printf.printf "# failed %-40s %d\n" r n)
    (List.sort compare l)

(* -- metrics ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* No [correct] flag: a wrong TPC-H answer aborts the run, and a wrong
   OLTP or scheduler outcome is a failed op. *)
type result = { ops : ops; metrics : metric list }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The end-to-end metrics: the same on every workload, over its own
   ops; only what an op and a second of work are differs. Timings rest
   on per-kind medians and are given at the reference speed (divided
   by [host_factor]); the wall-clock figures go on a '#' line. *)
let end_to_end ~setup_s ops ~ops_per_s =
  let latencies = Hashtbl.fold (fun _ l acc -> l @ acc) ops.kinds [] in
  let p50_s = median latencies and geomean_s = geomean (List.map snd (kind_medians ops)) in
  (* timings at the reference speed: see Calib *)
  let f = host_factor () in
  Printf.printf
    "# wall clock: setup_s %.4f ops_per_s %.6g op_geomean_ms %.4f; host factor %.4f \
     (median of %d calibrations); op_p50_ms %.4f at the reference speed\n"
    setup_s ops_per_s (geomean_s *. 1000.0) f (List.length !Calib.samples)
    (p50_s /. f *. 1000.0);
  [
    m "setup_s" "s" (setup_s /. f);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
    m "ok_ratio" "ratio"
      (float_of_int (ops.attempted - ops.failed) /. float_of_int ops.attempted);
    m "ops_per_s" "1/s" (ops_per_s *. f);
    m "op_geomean_ms" "ms" (geomean_s /. f *. 1000.0);
  ]

(* -- deployment set-up --------------------------------------------- *)

type setup = {
  deploy : Deployment.t;
  engine : Engine.t;
  setup_s : float;  (** median over the repetitions *)
  dbgen_s : float;
  secure_load_s : float;
  attest_ms : float;
}

(* The benchmark measures the library defaults: no buffer pool, CBC
   pages, row-at-a-time executor, one crypto lane, no faults. Refuse
   to run (and so to report numbers) against anything else. *)
let assert_defaults (d : Deployment.t) =
  let check what ok = if not ok then failwith ("wallbench: not default: " ^ what) in
  check "pool_frames" (d.Deployment.pool_frames = 0);
  check "crypto_lanes" (d.Deployment.params.Ironsafe_sim.Params.crypto_lanes = 1);
  check "page mode"
    (Sec.Secure_store.page_mode d.Deployment.secure_store = Sec.Secure_store.Cbc);
  check "exec mode" (Deployment.exec_mode d = Sql.Exec.Row_at_a_time);
  check "faults" (not (Ironsafe_fault.Fault.enabled (Deployment.faults d)))

(* One set-up: generate TPC-H, load both replicas (the secure one is
   encrypted and Merkle-protected), attest, and register the client.
   [extra] is the workload's own set-up on the finished deployment. *)
let setup_once ~wal ~extra =
  let dbgen = ref 0.0 in
  let t0 = now () in
  let d =
    Deployment.create ~seed:deployment_seed ~wal
      ~populate:(fun db ->
        let (), s = time (fun () -> ignore (Tpch.Dbgen.populate db ~scale)) in
        dbgen := s)
      ()
  in
  let created = now () -. t0 in
  assert_defaults d;
  let e = Engine.create d in
  ignore (Engine.register_client e ~label:client ());
  Engine.set_access_policy e ("read ::= sessionKeyIs(" ^ client ^ ")");
  (* the engine attests lazily on its first query; do it here, through
     a trivial query, so no measured op pays for it *)
  let (), attest_s =
    time (fun () ->
        match Engine.submit e ~client ~sql:"select count(*) from region" () with
        | Ok _ -> ()
        | Error msg -> failwith ("wallbench: warm-up query: " ^ msg))
  in
  extra d;
  let total = now () -. t0 in
  ( d,
    e,
    total,
    (!dbgen, created -. !dbgen, attest_s *. 1000.0) )

let setup_reps = 3

(* Set up [setup_reps] times from scratch and keep the last; report
   medians. The heap is compacted between repetitions so the peak-heap
   figure reflects one live deployment. *)
let setup ?(wal = false) ?(extra = fun _ -> ()) () =
  let rec go i acc =
    let d, e, total, split = setup_once ~wal ~extra in
    Calib.tick ();
    let acc = (total, split) :: acc in
    if i + 1 >= setup_reps then (d, e, acc)
    else begin
      Gc.compact ();
      go (i + 1) acc
    end
  in
  let d, e, reps = go 0 [] in
  Printf.printf "# set-ups %s s\n"
    (String.concat " " (List.rev_map (fun (t, _) -> Printf.sprintf "%.3f" t) reps));
  Gc.compact ();
  let med f = median (List.map f reps) in
  {
    deploy = d;
    engine = e;
    setup_s = med fst;
    dbgen_s = med (fun (_, (g, _, _)) -> g);
    secure_load_s = med (fun (_, (_, l, _)) -> l);
    attest_ms = med (fun (_, (_, _, a)) -> a);
  }

(* -- single-layer kernels (traced runs of every workload) ----------- *)

(* Median per-call time of [f] in microseconds, over [reps] batches of
   [iters] calls. *)
let kernel_us ?(reps = 7) ~iters f =
  let once () =
    let t0 = now () in
    for i = 0 to iters - 1 do
      f i
    done;
    (now () -. t0) /. float_of_int iters *. 1e6
  in
  median (List.init reps (fun _ -> once ()))

let kernels (d : Deployment.t) =
  let module C = Ironsafe_crypto in
  let store = d.Deployment.secure_store in
  (* the store's capacity exceeds what TPC-H fills; pages are allocated
     from 0, and SF 0.01 fills thousands *)
  let read_page_us =
    kernel_us ~reps:5 ~iters:200 (fun i ->
        match Sec.Secure_store.read_page store i with
        | Ok _ -> ()
        | Error e -> failwith (Fmt.str "read_page: %a" Sec.Secure_store.pp_error e))
  in
  let page = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let key = C.Aes.expand_key (String.make 16 'k') in
  let iv = String.make 16 'i' in
  let ct = C.Modes.cbc_encrypt ~key ~iv (String.sub page 0 (4096 - 16)) in
  let aes_us =
    kernel_us ~iters:200 (fun _ -> ignore (C.Modes.cbc_decrypt ~key ~iv ct))
  in
  let mac_key = C.Hmac.precompute ~key:(String.make 32 'm') in
  let hmac_us =
    kernel_us ~iters:200 (fun _ -> ignore (C.Hmac.mac_pre mac_key page))
  in
  [
    m "securestore.read_page_us" "us" read_page_us;
    m "crypto.aes128_cbc_decrypt_4k_us" "us" aes_us;
    m "crypto.hmac_sha256_4k_us" "us" hmac_us;
  ]

(* Layer self times of a traced run, as [(layer, seconds)]. Each one is
   printed in ms on a '#' line; the JSON carries the measured total and
   each layer's share of it. A layer the workload does not exercise
   then reads 0 as a share, and every time in the JSON is measured. *)
let layer_shares ~total layers =
  List.iter
    (fun (name, sec) ->
      Printf.printf "# layer %-28s %12.3f ms %6.1f%%\n" name (sec *. 1000.0)
        (100.0 *. sec /. total))
    layers;
  m "trace.measured_s" "s" total
  :: List.map (fun (name, sec) -> m (name ^ "_share") "ratio" (sec /. total)) layers

(* The per-layer metrics every traced run reports: the set-up split and
   the kernels, measured on the fresh deployment before the workload
   runs (so a workload that breaks pages cannot break the kernels). *)
let base_layers s =
  [
    m "tpch.dbgen_s" "s" s.dbgen_s;
    m "deployment.secure_load_s" "s" s.secure_load_s;
    m "deployment.attest_ms" "ms" s.attest_ms;
  ]
  @ kernels s.deploy
