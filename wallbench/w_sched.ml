(* sched_replay: set-up profiles TPC-H Q1 and Q6 under scs
   ([Sched.profile]); the timed part replays an open loop on the
   virtual clock at 0.5x, 1x and 2x the analytic capacity (computed as
   the saturation sweep does) with 10^5 session lanes and bounded
   forensics. One closed-loop client runs the three points in turn,
   sweep after sweep. SQL and crypto do no work here: the scheduler
   loop, event queue and tape replay do. *)

open Ironsafe
open Common
module Sim = Ironsafe_sim
module Sched = Ironsafe_sched.Sched

let sessions = 100_000
let multipliers = [ 0.5; 1.0; 2.0 ]
let mix = [ 1; 6 ]
let point_name mult = Printf.sprintf "x%g" mult

(* sweeps per run: at least four, so each point's median rests on four
   replays; a sweep takes 3-6 s *)
let min_passes = 4
let pass_s = 4.5

let profiles d =
  List.map
    (fun qid ->
      Sched.profile d Config.Scs ~label:(Printf.sprintf "q%d" qid)
        ~sql:(Tpch.Queries.by_id qid).Tpch.Queries.sql)
    mix

(* Mean per-query occupancy of each server class over the mix, divided
   by the class's parallel slots; the busiest class sets capacity. *)
let capacity (d : Deployment.t) profiles =
  let spec0 = Sched.default_spec in
  let host_name = Sim.Node.name d.Deployment.host in
  let slots node = float_of_int (Sim.Cpu.cores (Sim.Node.cpu node)) in
  let h = ref 0.0 and c = ref 0.0 and io = ref 0.0 and ch = ref 0.0 in
  List.iter
    (fun p ->
      let it = p.Sched.qp_itape in
      let names = Sim.Tape.interned_nodes it in
      for i = 0 to Sim.Tape.interned_length it - 1 do
        let cls = Sim.Tape.cls it i and ns = Sim.Tape.ns it i in
        if cls = Sim.Tape.cls_sync then ch := !ch +. ns
        else if names.(Sim.Tape.node_id it i) = host_name then h := !h +. ns
        else if cls = Sim.Tape.cls_io then io := !io +. ns
        else c := !c +. ns
      done)
    profiles;
  let n = float_of_int (List.length profiles) in
  let bottleneck =
    List.fold_left Float.max 0.0
      [
        !h /. n /. slots d.Deployment.host;
        !c /. n /. slots d.Deployment.storage;
        !io /. n /. float_of_int spec0.Sched.device_queue_depth;
        !ch /. n /. float_of_int spec0.Sched.channel_streams;
      ]
  in
  1e9 /. bottleneck

let run ~traced ~seed ~seconds ~trace_out =
  let prof = ref [] and profile_s = ref [] in
  let s =
    setup
      ~extra:(fun d ->
        let p, t = time (fun () -> profiles d) in
        prof := p;
        profile_s := t :: !profile_s)
      ()
  in
  let base = if traced then base_layers s else [] in
  let d = s.deploy and profiles = !prof in
  let cap = capacity d profiles in
  Printf.printf "# capacity %.3f q/s (virtual clock); %d lanes and queries per point\n" cap sessions;
  let spec mult =
    {
      Sched.default_spec with
      Sched.seed;
      arrival = Sched.Open_loop { qps = mult *. cap };
      queries = sessions;
      max_inflight = sessions;
      queue_depth = sessions;
      sample_sessions = 64;
    }
  in
  Gc.compact ();
  let ops = new_ops () in
  let tr = Trace.create () in
  let events = ref 0 and wall_ns = ref 0.0 in
  let sweeps = ref [] in
  let reports = Hashtbl.create 4 in
  for _ = 1 to passes ~seconds ~pass_s ~min:min_passes do
    let ts = now () and c0 = Calib.spent_s () in
    List.iter
      (fun mult ->
        let kind = point_name mult in
        let replay () = Sched.run d (spec mult) profiles in
        let r, lat =
          if traced then
            time (fun () -> Trace.with_span tr ~qid:kind ("sched.run." ^ kind) (fun _ -> replay ()))
          else time replay
        in
        events := !events + r.Sched.rep_events;
        wall_ns := !wall_ns +. r.Sched.rep_wall_ns;
        Hashtbl.replace reports mult
          (r :: Option.value ~default:[] (Hashtbl.find_opt reports mult));
        (* every submitted session is accounted for exactly once *)
        if r.Sched.rep_completed + r.Sched.rep_shed + r.Sched.rep_denied = r.Sched.rep_submitted
        then Common.ok ops ~kind lat
        else fail ops ~reason:"conservation";
        Calib.tick ())
      multipliers;
    sweeps := (now () -. ts -. (Calib.spent_s () -. c0)) :: !sweeps
  done;
  let per_point =
    List.map
      (fun mult ->
        let rs = Hashtbl.find reports mult in
        let r = List.hd rs in
        let walls = List.map (fun r -> r.Sched.rep_wall_ns /. 1e9) rs in
        let evs =
          median (List.map (fun r -> float_of_int r.Sched.rep_events /. (r.Sched.rep_wall_ns /. 1e9)) rs)
        in
        let heap = float_of_int (r.Sched.rep_peak_words * (Sys.word_size / 8)) /. 1e6 in
        Printf.printf
          "# %-5s offered %.1f q/s done %d shed %d denied %d events %d sched.wall_s median %.3f, %.0f events/s, peak %.1f MB\n"
          (point_name mult) (mult *. cap) r.Sched.rep_completed r.Sched.rep_shed r.Sched.rep_denied
          r.Sched.rep_events (median walls) evs heap;
        (mult, r, evs, heap, median walls))
      multipliers
  in
  Printf.printf "# sweeps %s s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !sweeps));
  if traced then Trace.write tr trace_out;
  let events_per_s = float_of_int !events /. (!wall_ns /. 1e9) in
  (* a typical sweep: every point's replay at its median wall time *)
  let typical_events_per_s =
    float_of_int (List.fold_left (fun a (_, r, _, _, _) -> a + r.Sched.rep_events) 0 per_point)
    /. sum (List.map (fun (_, _, _, _, wall) -> wall) per_point)
  in
  let fl = float_of_int in
  let metrics =
    if not traced then end_to_end ~setup_s:s.setup_s ops ~ops_per_s:typical_events_per_s
    else begin
      Printf.printf "# sched.profile_ms %.3f (median over the set-ups)\n"
        (median !profile_s *. 1000.0);
      let total = sum !sweeps in
      let points =
        List.map
          (fun mult ->
            ("sched." ^ point_name mult, Trace.self_s tr ("sched.run." ^ point_name mult)))
          multipliers
      in
      base
      @ layer_shares ~total (points @ [ ("wallbench.client", total -. sum (List.map snd points)) ])
      @ [
          m "sched.events" "count"
            (fl (List.fold_left (fun a (_, r, _, _, _) -> a + r.Sched.rep_events) 0 per_point));
          m "sched.events_per_s" "1/s" events_per_s;
        ]
      @ List.concat_map
          (fun (mult, r, evs, heap, _) ->
            let p = "sched." ^ point_name mult ^ "." in
            [
              m (p ^ "events_per_s") "1/s" evs;
              m (p ^ "peak_heap_mb") "MB" heap;
              m (p ^ "completed") "count" (fl r.Sched.rep_completed);
              m (p ^ "shed") "count" (fl r.Sched.rep_shed);
            ])
          per_point
    end
  in
  { ops; metrics }
