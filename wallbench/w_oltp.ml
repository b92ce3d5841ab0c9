(* oltp_wal: writes beside reads on the secure medium with the WAL on
   (synchronous commit, the default 512-page log) and an index on
   orders(o_orderkey). One closed-loop client runs statements under sos
   through [Runner.run_stmt_outcome], the only path that commits
   through the WAL: 60% point reads by key, 35% single-row inserts,
   5% single-key updates. The repo has no checkpointer, so the client
   calls [Txn_store.checkpoint] every [checkpoint_every] statements, on
   the clock. The run ends with [Deployment.reboot_secure] and a
   whole-table comparison against the client's own model of orders. *)

open Ironsafe
open Common
module Sim = Ironsafe_sim
module W = Ironsafe_wal
module V = Sql.Value

let checkpoint_every = 200

(* checkpoint intervals per run: at least eight, since each has one
   successful update and the update median needs them; an interval
   takes 1.5-2.5 s, longer as the table grows *)
let min_passes = 8
let pass_s = 2.5

(* The op kinds of one checkpoint interval: exactly 60% reads, 35%
   inserts and 5% updates, dealt in a seeded order. A fixed count per
   interval keeps the slow updates from making the interval time a
   draw of the seed. *)
let deck prng =
  let n = checkpoint_every in
  shuffle prng
    (Array.init n (fun i ->
         if i < n * 60 / 100 then `Read else if i < n * 95 / 100 then `Insert else `Update))

(* A statement's fate, with every failure named for the histogram:
   the runner's typed outcomes, and any exception it lets escape. *)
let run_stmt d sql =
  match Runner.run_stmt_outcome d Config.Sos (Sql.Parser.parse sql) with
  | Runner.Ok mt | Runner.Degraded (mt, _) -> Ok mt
  | Runner.Rejected v -> Error ("rejected: " ^ reason_of v.Runner.v_detail)
  | Runner.Crashed v -> Error ("crashed: " ^ reason_of v.Runner.v_detail)
  | exception e -> Error ("error: " ^ reason_of (Printexc.to_string e))

let rows_of d sql =
  match run_stmt d sql with
  | Ok mt -> Ok mt.Runner.result.Sql.Exec.rows
  | Error _ as e -> e

let set_up_rows d sql =
  match rows_of d sql with
  | Ok rows -> rows
  | Error e -> failwith (Printf.sprintf "wallbench: %s: %s" sql e)

let create_index d =
  ignore (set_up_rows d "create index orders_okey on orders (o_orderkey)")

(* growable key array, so a uniform key draw stays O(1) *)
type keys = { mutable a : int array; mutable n : int }

let push k x =
  if k.n = Array.length k.a then k.a <- Array.append k.a (Array.make (k.n + 1) 0);
  k.a.(k.n) <- x;
  k.n <- k.n + 1

let pick prng k = k.a.(Sim.Prng.rand_int prng k.n)

let new_row prng key =
  let price = Printf.sprintf "%d.%02d" (1000 + Sim.Prng.rand_int prng 400000) (Sim.Prng.rand_int prng 100) in
  let day = Sql.Date.add_days (Sql.Date.of_ymd ~y:1998 ~m:8 ~d:3) (Sim.Prng.rand_int prng 365) in
  let cust = 1 + Sim.Prng.rand_int prng 1500 in
  let sql =
    Printf.sprintf
      "insert into orders values (%d, %d, 'O', %s, date '%s', '3-MEDIUM', \
       'Clerk#000000042', 0, 'wallbench %d')"
      key cust price (Sql.Date.to_string day) key
  in
  let row =
    [|
      V.Int key; V.Int cust; V.Str "O"; V.Float (float_of_string price); V.Date day;
      V.Str "3-MEDIUM"; V.Str "Clerk#000000042"; V.Int 0;
      V.Str (Printf.sprintf "wallbench %d" key);
    |]
  in
  (sql, row)

let key_of (row : Sql.Row.t) = match row.(0) with V.Int k -> k | _ -> failwith "o_orderkey"

type wal_counts = { appends : int; flushes : int; anchors : int; bytes : int }

let wal_counts ts =
  let s = W.Wal.stats (W.Txn_store.wal ts) in
  { appends = s.W.Wal.appends; flushes = s.W.Wal.flushes; anchors = s.W.Wal.anchors;
    bytes = s.W.Wal.bytes_logged }

let run ~traced ~seed ~seconds ~trace_out =
  let s = setup ~wal:true ~extra:create_index () in
  let base = if traced then base_layers s else [] in
  let d = s.deploy in
  let ts = Option.get (Deployment.txn_store d) in
  let model = Hashtbl.create 32768 in
  let keys = { a = [||]; n = 0 } in
  List.iter
    (fun row ->
      Hashtbl.replace model (key_of row) row;
      push keys (key_of row))
    (set_up_rows d "select * from orders");
  let next_key = ref (1 + Array.fold_left max 0 keys.a) in
  Gc.compact ();
  let prng = Sim.Prng.create ~seed in
  let ops = new_ops () in
  let tr = Trace.create () in
  let span ~qid name f =
    if traced then Trace.with_span tr ~qid name (fun _ -> f ()) else f ()
  in
  (* latest acknowledged write per key: (kind, latency) *)
  let acked = Hashtbl.create 1024 in
  let user_bytes = ref 0 in
  let w0 = wal_counts ts in
  let durable0 = (W.Txn_store.stats ts).W.Txn_store.durable_commits in
  let decrypts = ref 0 and macs = ref 0 and merkle = ref 0 and pages = ref 0 in
  let checkpoints = ref [] and intervals = ref [] in
  let stmt ~kind sql =
    let r, lat = time (fun () -> span ~qid:kind "runner.run_stmt_outcome" (fun () -> run_stmt d sql)) in
    (match r with
    | Ok mt when traced ->
        (* the runner zeroes the store's counters before each statement *)
        let st = Sec.Secure_store.stats d.Deployment.secure_store in
        decrypts := !decrypts + st.Sec.Secure_store.page_decrypts;
        macs := !macs + st.Sec.Secure_store.page_mac_checks;
        merkle := !merkle + st.Sec.Secure_store.merkle_hashes;
        pages := !pages + mt.Runner.pages_scanned
    | _ -> ());
    (r, lat)
  in
  let read () =
    let k = pick prng keys in
    match stmt ~kind:"read" (Printf.sprintf "select * from orders where o_orderkey = %d" k) with
    | Ok mt, lat ->
        if mt.Runner.result.Sql.Exec.rows = [ Hashtbl.find model k ] then
          Common.ok ops ~kind:"read" lat
        else fail ops ~reason:"wrong_result"
    | Error reason, _ -> fail ops ~reason
  in
  let write kind i =
    let key, sql, row =
      if kind = "insert" then begin
        let key = !next_key in
        incr next_key;
        let sql, row = new_row prng key in
        (key, sql, row)
      end
      else begin
        let key = pick prng keys in
        let comment = Printf.sprintf "updated %d" i in
        let row = Array.copy (Hashtbl.find model key) in
        row.(8) <- V.Str comment;
        ( key,
          Printf.sprintf "update orders set o_comment = '%s' where o_orderkey = %d" comment key,
          row )
      end
    in
    user_bytes := !user_bytes + Sql.Row.encoded_size row;
    match stmt ~kind sql with
    | Ok _, lat ->
        if kind = "insert" then push keys key;
        Hashtbl.replace model key row;
        Hashtbl.replace acked key (kind, lat);
        Common.ok ops ~kind lat
    | Error reason, _ -> fail ops ~reason
  in
  let checkpoint () =
    let r, t =
      time (fun () ->
          span ~qid:"checkpoint" "txn_store.checkpoint" (fun () ->
              match W.Txn_store.checkpoint ts with
              | Ok () -> None
              | Error e -> Some (Fmt.str "%a" W.Txn_store.pp_error e)
              | exception e -> Some (Printexc.to_string e)))
    in
    Option.iter (fun e -> Printf.printf "# checkpoint failed: %s\n" e) r;
    checkpoints := t :: !checkpoints
  in
  let t0 = now () and c0 = Calib.spent_s () in
  let n = ref 0 in
  for _ = 1 to passes ~seconds ~pass_s ~min:min_passes do
    let start = now () in
    Array.iter
      (fun kind ->
        (match kind with
        | `Read -> read ()
        | `Insert -> write "insert" !n
        | `Update -> write "update" !n);
        incr n)
      (deck prng);
    checkpoint ();
    intervals := (now () -. start) :: !intervals;
    Calib.tick ()
  done;
  let measured = now () -. t0 -. Calib.spent_s () +. c0 in
  let w1 = wal_counts ts in
  let durable = (W.Txn_store.stats ts).W.Txn_store.durable_commits - durable0 in
  (* durability: power-cycle the secure medium, then every acknowledged
     write must be there, and no untouched row may have changed. A
     reboot that fails is one failed op; the rows then cannot be read
     back, and that is reported, not counted. *)
  let reboot, reboot_s =
    time (fun () ->
        span ~qid:"reboot" "deployment.reboot_secure" (fun () ->
            match Deployment.reboot_secure d with
            | Ok () -> Ok ()
            | Error e -> Error e
            | exception e -> Error (Printexc.to_string e)))
  in
  let lost = ref 0 and wrong = ref 0 and extra = ref 0 in
  (match Result.bind reboot (fun () -> rows_of d "select * from orders") with
  | Error e ->
      fail ops ~reason:("reboot: " ^ reason_of e);
      Printf.printf "# reboot_secure failed (%s): acknowledged writes not verified\n" e
  | Ok rows ->
      let after = Hashtbl.create 32768 in
      List.iter (fun row -> Hashtbl.replace after (key_of row) row) rows;
      Hashtbl.iter
        (fun k row ->
          if Hashtbl.find_opt after k <> Some row then
            match Hashtbl.find_opt acked k with
            | Some (kind, latency) ->
                incr lost;
                revoke ops ~kind ~latency ~reason:"lost_ack"
            | None ->
                incr wrong;
                fail ops ~reason:"wrong_result")
        model;
      Hashtbl.iter (fun k _ -> if not (Hashtbl.mem model k) then incr extra) after;
      Printf.printf
        "# after reboot: %d acked writes lost, %d untouched rows wrong, %d unacked rows present\n"
        !lost !wrong !extra);
  Printf.printf "# statements %d in %.3f s; reboot %.3f s; 200-statement intervals %s s\n" !n
    measured reboot_s
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !intervals));
  List.iter
    (fun kind ->
      let l = Option.value ~default:[] (Hashtbl.find_opt ops.kinds kind) in
      Printf.printf "# %s_p50_ms %.4f %s_p99_ms %.4f (n=%d)\n" kind
        (median l *. 1000.0) kind (percentile 0.99 l *. 1000.0) (List.length l))
    [ "read"; "insert"; "update" ];
  if traced then Trace.write tr trace_out;
  (* statements of a typical interval, failed ones included: how many
     fail depends on where the seed deals the update (see the defects
     in NOTES.md), and ok_ratio reports that share *)
  let stmts_per_s = float_of_int checkpoint_every /. median !intervals in
  let fl = float_of_int in
  let prefixed p =
    Hashtbl.fold
      (fun r c acc -> if String.starts_with ~prefix:p r then acc + c else acc)
      ops.reasons 0
  in
  let metrics =
    if not traced then end_to_end ~setup_s:s.setup_s ops ~ops_per_s:stmts_per_s
    else
      let self = Trace.self_s tr in
      let stmts = self "runner.run_stmt_outcome" and cps = self "txn_store.checkpoint" in
      let reboot = self "deployment.reboot_secure" in
      let total = measured +. reboot_s in
      Printf.printf "# txn_store.checkpoint_ms %.3f (median of %d)\n"
        (median !checkpoints *. 1000.0) (List.length !checkpoints);
      base
      @ layer_shares ~total
          [
            ("runner.statements", stmts);
            ("txn_store.checkpoint", cps);
            ("deployment.reboot", reboot);
            ("wallbench.client", total -. stmts -. cps -. reboot);
          ]
      @ [
          m "securestore.pages_read" "count" (fl !pages);
          m "securestore.decrypts" "count" (fl !decrypts);
          m "securestore.macs" "count" (fl !macs);
          m "securestore.merkle_hashes" "count" (fl !merkle);
          m "securestore.merkle_hashes_per_page" "ratio"
            (if !decrypts = 0 then 0.0 else fl !merkle /. fl !decrypts);
          m "wal.appends" "count" (fl (w1.appends - w0.appends));
          m "wal.flushes" "count" (fl (w1.flushes - w0.flushes));
          m "wal.anchors" "count" (fl (w1.anchors - w0.anchors));
          m "wal.bytes_logged_per_user_byte" "ratio"
            (fl (w1.bytes - w0.bytes) /. fl (max 1 !user_bytes));
          m "txn_store.durable_commits" "count" (fl durable);
          m "txn_store.lost_acked" "count" (fl !lost);
          m "failed.rejected" "count" (fl (prefixed "rejected"));
          m "failed.crashed" "count" (fl (prefixed "crashed"));
          m "failed.error" "count" (fl (prefixed "error"));
          m "failed.wrong_result" "count" (fl (reason_count ops "wrong_result"));
          m "failed.lost_ack" "count" (fl (reason_count ops "lost_ack"));
          m "failed.reboot" "count" (fl (prefixed "reboot"));
        ]
  in
  { ops; metrics }
