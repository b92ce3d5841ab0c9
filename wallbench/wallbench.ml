(* Wall-clock benchmark of the IronSafe library.

     wallbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
   runs the workload again with spans around each layer's public calls
   and prints the per-layer metrics. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Lines before
   it start with '#' and are for people. See wallbench/NOTES.md. *)

open Common

let workloads = [ "tpch_scs"; "tpch_vcs"; "oltp_wal"; "sched_replay" ]

let usage () =
  prerr_endline
    "usage: wallbench.exe --workload (tpch_scs|tpch_vcs|oltp_wal|sched_replay) \
     --seed N --seconds S --trace 0|1";
  exit 2

(* Every run prints every metric of its kind, in this order. A layer a
   workload does not exercise reads 0 (see NOTES.md for which layer
   each workload exercises). *)
let end_to_end =
  [
    ("setup_s", "s"); ("peak_heap_mb", "MB"); ("ok_ratio", "ratio");
    ("ops_per_s", "1/s"); ("op_geomean_ms", "ms");
  ]

let per_layer =
  let shares l = List.map (fun n -> (n ^ "_share", "ratio")) l in
  let sched_point p =
    List.map
      (fun (n, u) -> ("sched." ^ p ^ "." ^ n, u))
      [ ("events_per_s", "1/s"); ("peak_heap_mb", "MB"); ("completed", "count"); ("shed", "count") ]
  in
  [
    ("host.factor", "ratio");
    ("tpch.dbgen_s", "s"); ("deployment.secure_load_s", "s");
    ("deployment.attest_ms", "ms");
    ("securestore.read_page_us", "us"); ("crypto.aes128_cbc_decrypt_4k_us", "us");
    ("crypto.hmac_sha256_4k_us", "us");
    ("trace.measured_s", "s");
  ]
  (* tpch_* *)
  @ shares
      [ "monitor.authorize"; "partitioner.split"; "securestore.verify";
        "storage_engine.scan"; "host_engine.run"; "runner.charge";
        "engine.submit_overhead" ]
  @ [
      ("securestore.pages_read", "count"); ("securestore.decrypts", "count");
      ("securestore.macs", "count"); ("securestore.merkle_hashes", "count");
      ("securestore.merkle_hashes_per_page", "ratio");
      ("storage_engine.bytes_shipped", "bytes"); ("sql.storage_rows", "count");
      ("sql.host_rows", "count"); ("gc.offload_minor_mwords", "Mwords");
      ("gc.host_minor_mwords", "Mwords");
      ("layers.coverage", "ratio"); ("trace.overhead_pct", "%");
    ]
  (* oltp_wal *)
  @ shares [ "runner.statements"; "txn_store.checkpoint"; "deployment.reboot" ]
  @ [
      ("wal.appends", "count"); ("wal.flushes", "count"); ("wal.anchors", "count");
      ("wal.bytes_logged_per_user_byte", "ratio");
      ("txn_store.durable_commits", "count"); ("txn_store.lost_acked", "count");
      ("failed.rejected", "count"); ("failed.crashed", "count");
      ("failed.error", "count"); ("failed.wrong_result", "count");
      ("failed.lost_ack", "count"); ("failed.reboot", "count");
    ]
  (* sched_replay *)
  @ shares [ "sched.x0.5"; "sched.x1"; "sched.x2" ]
  @ [ ("sched.events", "count"); ("sched.events_per_s", "1/s") ]
  @ sched_point "x0.5" @ sched_point "x1" @ sched_point "x2"
  (* oltp_wal and sched_replay: time outside the library's calls *)
  @ shares [ "wallbench.client" ]
  (* tpch_*: the virtual clock *)
  @ [
      ("sim.virtual_suite_ms", "virtual_ms"); ("sim.share.ndp", "ratio");
      ("sim.share.freshness", "ratio"); ("sim.share.decryption", "ratio");
      ("sim.share.network", "ratio"); ("sim.share.other", "ratio");
    ]

(* Order [got] as [schema]; names the workload did not measure read 0.
   A measured name missing from the schema, or a unit that disagrees,
   is a bug in the benchmark. *)
let complete ~fill schema got =
  List.iter
    (fun mt ->
      match List.assoc_opt mt.name schema with
      | Some u when u = mt.unit_ -> ()
      | _ -> failwith ("wallbench: metric not in schema: " ^ mt.name))
    got;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun mt -> mt.name = name) got with
      | Some mt -> mt
      | None when fill -> { name; value = 0.0; unit_ }
      | None -> failwith ("wallbench: metric not measured: " ^ name))
    schema

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "wallbench: non-finite metric"

let print_result (ops : ops) metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    ops.attempted ops.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then usage ();
  (* one single-threaded client: no domains are spawned, and the
     crypto lane count is checked on every deployment (Common.setup) *)
  Printf.printf
    "# wallbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     scale=%g single_threaded=true crypto_lanes=1\n%!"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version scale;
  let seed = !seed and seconds = !seconds in
  (* spans of a traced run; the directory is in .gitignore *)
  let out_dir = ".wallbench_out" in
  if !trace = 1 && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_out = Filename.concat out_dir (Printf.sprintf "spans_%s_%d.jsonl" !workload seed) in
  let r =
    try
    match (!workload, !trace) with
    | "tpch_scs", 0 -> W_tpch.measure ~config:Ironsafe.Config.Scs ~seed ~seconds
    | "tpch_vcs", 0 -> W_tpch.measure ~config:Ironsafe.Config.Vcs ~seed ~seconds
    | "tpch_scs", _ -> W_tpch.traced ~config:Ironsafe.Config.Scs ~seed ~trace_out
    | "tpch_vcs", _ -> W_tpch.traced ~config:Ironsafe.Config.Vcs ~seed ~trace_out
    | "oltp_wal", t -> W_oltp.run ~traced:(t = 1) ~seed ~seconds ~trace_out
    | _, t -> W_sched.run ~traced:(t = 1) ~seed ~seconds ~trace_out
    with W_tpch.Mismatch q ->
      (* a wrong answer aborts the run: no numbers for a wrong system *)
      Printf.printf "# MISMATCH: %s differs from the hons oracle\n" q;
      exit 1
  in
  pp_reasons r.ops;
  if r.ops.attempted < 1 then failwith "wallbench: no op attempted";
  let metrics =
    if !trace = 0 then complete ~fill:false end_to_end r.metrics
    else
      complete ~fill:true per_layer
        (m "host.factor" "ratio" (host_factor ()) :: r.metrics)
  in
  print_result r.ops metrics
