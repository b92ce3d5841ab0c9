(* In-memory spans recorded around calls into the library's public
   functions (the library itself is not instrumented). Spans are kept
   in a list and written out as JSON lines when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  qid : string;  (** the op the span belongs to *)
  start : float;  (** seconds since the recorder was created *)
  stop : float;
  minor_words : float;  (** [Gc.quick_stat] delta over the span *)
  major_words : float;
}

type t = { origin : float; mutable spans : span list; mutable next : int }

let create () = { origin = Common.now (); spans = []; next = 0 }

(* Run [f] inside a span; [f] receives the span id so it can parent
   child spans. *)
let with_span t ?(parent = -1) ~qid name f =
  let id = t.next in
  t.next <- id + 1;
  let g0 = Gc.quick_stat () in
  let t0 = Common.now () in
  let r = f id in
  let t1 = Common.now () in
  let g1 = Gc.quick_stat () in
  t.spans <-
    {
      id;
      name;
      parent;
      qid;
      start = t0 -. t.origin;
      stop = t1 -. t.origin;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
    }
    :: t.spans;
  r

let duration s = s.stop -. s.start

(* A span's self time: its duration minus the part its children
   cover (children never overlap: the client is single-threaded). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    t.spans

(* Sum of self times and of minor words per span name. *)
let by_name t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let a, w = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (a +. self, w +. s.minor_words))
    (self_times t);
  acc

let self_s t name =
  match Hashtbl.find_opt (by_name t) name with Some (s, _) -> s | None -> 0.0

let minor_words t name =
  match Hashtbl.find_opt (by_name t) name with Some (_, w) -> w | None -> 0.0

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"qid\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
        s.id s.name s.parent s.qid s.start s.stop s.minor_words s.major_words)
    (List.rev t.spans);
  close_out oc
