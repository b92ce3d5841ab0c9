(* tpch_scs / tpch_vcs: the 17 queries of [Tpch.Queries.all] in a
   seeded order per pass, each submitted through [Engine.submit] by one
   closed-loop client (the next query is sent when the previous answer
   is back). Every answer is checked against an unsplit host-only
   (hons) oracle computed once after set-up. *)

open Ironsafe
open Common
module Sim = Ironsafe_sim
module Mon = Ironsafe_monitor.Trusted_monitor
module C = Ironsafe_crypto

let queries = Array.of_list Tpch.Queries.all

(* whole passes per run, at least two; an scs pass takes 10-21 s,
   which bounds how many the time budget allows *)
let min_passes = 2
let pass_s = 15.0
let qname (q : Tpch.Queries.t) = Printf.sprintf "q%d" q.Tpch.Queries.id

(* a fresh seeded order per pass *)
let order prng = shuffle prng (Array.copy queries)

let oracle d =
  let h = Hashtbl.create 32 in
  Array.iter
    (fun (q : Tpch.Queries.t) ->
      Hashtbl.replace h q.Tpch.Queries.id
        (Runner.run_query d Config.Hons q.Tpch.Queries.sql).Runner.result)
    queries;
  h

let same (a : Sql.Exec.result) (b : Sql.Exec.result) =
  a.Sql.Exec.columns = b.Sql.Exec.columns && a.Sql.Exec.rows = b.Sql.Exec.rows

exception Mismatch of string

let check oracle (q : Tpch.Queries.t) r =
  if not (same r (Hashtbl.find oracle q.Tpch.Queries.id)) then
    raise (Mismatch (qname q))

type pass = {
  wall_s : float;
  responses : (Tpch.Queries.t * Engine.response) list;
}

(* One untraced pass: every answer checked, every query timed. *)
let run_pass ~config ~oracle ~ops e prng =
  let t0 = now () and c0 = Calib.spent_s () in
  let responses =
    Array.fold_left
      (fun acc (q : Tpch.Queries.t) ->
        let r, s =
          time (fun () -> Engine.submit ~config e ~client ~sql:q.Tpch.Queries.sql ())
        in
        match r with
        | Ok resp ->
            check oracle q resp.Engine.resp_result;
            Common.ok ops ~kind:(qname q) s;
            Calib.tick ();
            (q, resp) :: acc
        | Error msg ->
            fail ops ~reason:("error: " ^ reason_of msg);
            acc)
      [] (order prng)
  in
  { wall_s = now () -. t0 -. (Calib.spent_s () -. c0); responses = List.rev responses }

let db_of d config =
  match config with
  | Config.Scs -> d.Deployment.secure_db
  | _ -> d.Deployment.plain_db

(* -- untraced run: end-to-end metrics --------------------------------- *)

(* Set-up, the oracle, then a warm-up that reads every table once
   through the workload's own path: the first touch of a secure page
   builds per-page state (its MAC prekey), a cost a long-running
   server pays once, not per query. Running the oracle's 17 queries
   has already grown the heap to its working size. *)
let prepare ~config ~seed =
  let s = setup () in
  let oracle = oracle s.deploy in
  List.iter
    (fun t ->
      ignore
        (Runner.run_query s.deploy config
           ("select count(*) from " ^ Sql.Schema.name t)))
    Tpch.Tpch_schema.all;
  Gc.compact ();
  (s, oracle, Sim.Prng.create ~seed)

let measure ~config ~seed ~seconds =
  let s, oracle, prng = prepare ~config ~seed in
  let ops = new_ops () in
  (* whole passes, so every query is timed equally often *)
  let passes =
    List.init (passes ~seconds ~pass_s ~min:min_passes) (fun _ ->
        (run_pass ~config ~oracle ~ops s.engine prng).wall_s)
  in
  let per_query = kind_medians ops in
  List.iter
    (fun (k, v) -> Printf.printf "# %-4s median %.3f ms\n" k (v *. 1000.0))
    per_query;
  (* a typical pass: every query at its median *)
  let suite_s = sum (List.map snd per_query) in
  Printf.printf "# passes %d, pass wall times %s s; suite_s %.3f (sum of the medians)\n"
    (List.length passes)
    (String.concat " " (List.map (Printf.sprintf "%.3f") passes))
    suite_s;
  {
    ops;
    metrics =
      end_to_end ~setup_s:s.setup_s ops
        ~ops_per_s:(float_of_int (List.length per_query) /. suite_s);
  }

(* -- traced run: per-layer metrics ------------------------------------- *)

(* Fig. 8 categories of the virtual clock, summed over a pass *)
let sim_metrics responses =
  let cat = Hashtbl.create 16 in
  let total = ref 0.0 and e2e = ref 0.0 in
  List.iter
    (fun (_, (r : Engine.response)) ->
      let mt = r.Engine.resp_metrics in
      e2e := !e2e +. mt.Runner.end_to_end_ns;
      List.iter
        (fun (k, v) ->
          total := !total +. v;
          Hashtbl.replace cat k (v +. Option.value ~default:0.0 (Hashtbl.find_opt cat k)))
        (mt.Runner.host_breakdown @ mt.Runner.storage_breakdown))
    responses;
  let share names =
    if !total = 0.0 then 0.0
    else
      sum (List.map (fun k -> Option.value ~default:0.0 (Hashtbl.find_opt cat k)) names)
      /. !total
  in
  let ndp = share [ "ndp"; "io" ] and fresh = share [ "freshness" ] in
  let dec = share [ "decryption" ] and net = share [ "network" ] in
  [
    m "sim.virtual_suite_ms" "virtual_ms" (!e2e /. 1e6);
    m "sim.share.ndp" "ratio" ndp;
    m "sim.share.freshness" "ratio" fresh;
    m "sim.share.decryption" "ratio" dec;
    m "sim.share.network" "ratio" net;
    m "sim.share.other" "ratio" (if !total = 0.0 then 0.0 else 1.0 -. ndp -. fresh -. dec -. net);
  ]

(* Engine.submit's steps, called one by one from their public entry
   points: authorize, split, offload, host, then the runner path the
   engine really takes (which repeats split/offload/host internally and
   adds the cost-model charges), then session clean-up and signing. *)
let traced_query tr ~config ~oracle (s : setup) (q : Tpch.Queries.t) acc =
  let d = s.deploy in
  let qid = qname q in
  let sql = q.Tpch.Queries.sql in
  let span ?parent name f = Trace.with_span tr ?parent ~qid name (fun _ -> f ()) in
  Trace.with_span tr ~qid "query" (fun root ->
      let auth =
        span ~parent:root "monitor.authorize" (fun () ->
            Mon.authorize (Engine.monitor s.engine)
              ~catalog:(Sql.Database.catalog d.Deployment.secure_db)
              ~client_label:client ~database:"ironsafe" ~exec_policy:[] ~sql)
      in
      let auth =
        match auth with
        | Ok a when a.Mon.auth_offload_allowed -> a
        | Ok _ -> failwith "wallbench: monitor refused offloading"
        | Error e -> failwith ("wallbench: authorize: " ^ e)
      in
      let stmt = auth.Mon.auth_stmt in
      let src_db = db_of d config in
      let catalog = Sql.Database.catalog src_db in
      Deployment.reset_counters d;
      let plan =
        span ~parent:root "partitioner.split" (fun () -> Ironsafe.Partitioner.split catalog stmt)
      in
      let off =
        span ~parent:root "storage_engine.run_offload" (fun () ->
            Storage_engine.run_offload src_db plan)
      in
      let st = Sec.Secure_store.stats d.Deployment.secure_store in
      let decrypts = st.Sec.Secure_store.page_decrypts
      and macs = st.Sec.Secure_store.page_mac_checks
      and merkle = st.Sec.Secure_store.merkle_hashes in
      let host =
        span ~parent:root "host_engine.run_host" (fun () ->
            Host_engine.run_host ~exec_mode:(Deployment.exec_mode d)
              ~storage_catalog:catalog plan off)
      in
      (* the same plan on the plain replica: the difference is the
         secure store's verified-read cost *)
      if config = Config.Scs then
        ignore
          (span ~parent:root "storage_engine.run_offload.plain" (fun () ->
               Storage_engine.run_offload d.Deployment.plain_db plan));
      (* the engine path proper, as Engine.submit runs it *)
      Deployment.reset_counters d;
      let outcome =
        span ~parent:root "runner.run_stmt_outcome" (fun () ->
            Runner.run_stmt_outcome ~reset:false d config stmt)
      in
      let result =
        match outcome with
        | Runner.Ok mt | Runner.Degraded (mt, _) -> mt.Runner.result
        | Runner.Rejected v | Runner.Crashed v ->
            failwith (Fmt.str "wallbench: %a" Runner.pp_violation v)
      in
      Mon.session_cleanup (Engine.monitor s.engine) auth.Mon.auth_session_key;
      let digest =
        C.Sha256.digest
          (String.concat "|" result.Sql.Exec.columns
          ^ "\x00"
          ^ String.concat "\x00" (List.map Sql.Row.encode result.Sql.Exec.rows))
      in
      ignore
        (C.Signature.sign d.Deployment.host_sk
           ("host-result" ^ digest ^ auth.Mon.auth_proof.Mon.proof_query_digest));
      (host.Host_engine.result, result, off, host, (decrypts, macs, merkle)))
  |> fun (host_result, result, off, host, (decrypts, macs, merkle)) ->
  (* the traced answers must equal the untraced ones, i.e. the oracle *)
  check oracle q host_result;
  check oracle q result;
  let sc = off.Storage_engine.counters and hc = host.Host_engine.counters in
  let pages, dec, mac, mk, bytes, srows, hrows = acc in
  ( (pages + if config = Config.Scs then sc.Sql.Observer.page_reads else 0),
        dec + decrypts,
        mac + macs,
        mk + merkle,
        bytes + off.Storage_engine.bytes_shipped,
        srows + sc.Sql.Observer.rows,
        hrows + hc.Sql.Observer.rows )

let traced ~config ~seed ~trace_out =
  let s, oracle, prng = prepare ~config ~seed in
  let base = base_layers s in
  let ops = new_ops () in
  let untraced = run_pass ~config ~oracle ~ops s.engine prng in
  let tr = Trace.create () in
  let counts =
    Array.fold_left
      (fun acc q -> traced_query tr ~config ~oracle s q acc)
      (0, 0, 0, 0, 0, 0, 0) (order prng)
  in
  Trace.write tr trace_out;
  let pages, dec, mac, mk, bytes, srows, hrows = counts in
  let self = Trace.self_s tr in
  let ms x = x *. 1000.0 in
  let offload = self "storage_engine.run_offload" in
  let plain = self "storage_engine.run_offload.plain" in
  let verify = if config = Config.Scs then offload -. plain else 0.0 in
  let split = self "partitioner.split" and host = self "host_engine.run_host" in
  let runner = self "runner.run_stmt_outcome" in
  let charge = runner -. split -. offload -. host in
  let authorize = self "monitor.authorize" and overhead = self "query" in
  let traced_e2e = authorize +. runner +. overhead in
  let layers =
    [
      ("monitor.authorize", authorize);
      ("partitioner.split", split);
      ("securestore.verify", verify);
      ("storage_engine.scan", offload -. verify);
      ("host_engine.run", host);
      ("runner.charge", charge);
      ("engine.submit_overhead", overhead);
    ]
  in
  Printf.printf
    "# untraced pass %.3f s; traced pass, engine path %.3f s; storage_engine.offload_ms %.3f \
     (securestore.verify_ms %.3f); probes outside the engine path: plain offload %.3f ms\n"
    untraced.wall_s traced_e2e (ms offload) (ms verify) (ms plain);
  let fl = float_of_int in
  let metrics =
    base
    @ layer_shares ~total:traced_e2e layers
    @ [
        m "securestore.pages_read" "count" (fl pages);
        m "securestore.decrypts" "count" (fl dec);
        m "securestore.macs" "count" (fl mac);
        m "securestore.merkle_hashes" "count" (fl mk);
        m "securestore.merkle_hashes_per_page" "ratio"
          (if dec = 0 then 0.0 else fl mk /. fl dec);
        m "storage_engine.bytes_shipped" "bytes" (fl bytes);
        m "sql.storage_rows" "count" (fl srows);
        m "sql.host_rows" "count" (fl hrows);
        m "gc.offload_minor_mwords" "Mwords"
          (Trace.minor_words tr "storage_engine.run_offload" /. 1e6);
        m "gc.host_minor_mwords" "Mwords"
          (Trace.minor_words tr "host_engine.run_host" /. 1e6);
        m "layers.coverage" "ratio" (sum (List.map snd layers) /. untraced.wall_s);
        m "trace.overhead_pct" "%"
          (100.0 *. (traced_e2e -. untraced.wall_s) /. untraced.wall_s);
      ]
    @ sim_metrics untraced.responses
  in
  { ops; metrics }
