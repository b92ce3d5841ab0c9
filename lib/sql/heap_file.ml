(* Heap files: a table's rows packed into pager pages in insertion
   order. Page payload layout: u16 row count, then encoded rows. Rows
   never span pages (every supported row fits one page). *)

type t = {
  pager : Pager.t;
  schema : Schema.t;
  mutable pages : int list; (* in reverse order of allocation *)
  mutable row_count : int;
  (* write cursor over the last page *)
  mutable cur_page : int option;
  mutable cur_buf : Buffer.t;
  mutable cur_rows : int;
  mutable dirty : bool;
}

let create ~pager ~schema =
  {
    pager;
    schema;
    pages = [];
    row_count = 0;
    cur_page = None;
    cur_buf = Buffer.create 512;
    cur_rows = 0;
    dirty = false;
  }

let schema t = t.schema
let row_count t = t.row_count

let page_count t = List.length t.pages

let flush_current t =
  match t.cur_page with
  | None -> ()
  | Some page when t.dirty ->
      let buf = Buffer.create (Buffer.length t.cur_buf + 2) in
      Buffer.add_char buf (Char.chr ((t.cur_rows lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (t.cur_rows land 0xff));
      Buffer.add_buffer buf t.cur_buf;
      Pager.write t.pager page (Buffer.contents buf);
      t.dirty <- false
  | Some _ -> ()

let append t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: row arity mismatch";
  let encoded = Row.encode row in
  if String.length encoded + 2 > Pager.capacity t.pager then
    invalid_arg "Heap_file.append: row exceeds page capacity";
  (match t.cur_page with
  | Some _ when Buffer.length t.cur_buf + String.length encoded + 2
                <= Pager.capacity t.pager ->
      ()
  | Some _ ->
      flush_current t;
      let page = Pager.allocate t.pager in
      t.pages <- page :: t.pages;
      t.cur_page <- Some page;
      Buffer.clear t.cur_buf;
      t.cur_rows <- 0
  | None ->
      let page = Pager.allocate t.pager in
      t.pages <- page :: t.pages;
      t.cur_page <- Some page;
      Buffer.clear t.cur_buf;
      t.cur_rows <- 0);
  Buffer.add_string t.cur_buf encoded;
  t.cur_rows <- t.cur_rows + 1;
  t.row_count <- t.row_count + 1;
  t.dirty <- true

(* Like {!append} but reports the page the row landed on (used for
   index maintenance). *)
let append_page t row =
  append t row;
  match t.cur_page with Some p -> p | None -> assert false

let append_all t rows = List.iter (append t) rows

(* Make pending rows durable. Scans always flush first so they see a
   consistent on-storage image. *)
let flush t = flush_current t

let stored_pages t = List.rev t.pages

(* Rebuild the volatile write cursor and row count from the on-storage
   image. After a crash-and-recover of the backing store, the pages
   hold only durably committed rows while the in-memory cursor may
   still carry rows whose commit was lost — without this, the next
   append would resurrect them. A page the recovered store can no
   longer serve (allocated by a rolled-back transaction, so never
   durably written) is dropped from the file; allocations are monotone,
   so such pages can only form a tail. Only the exceptions that shape
   produces — a read past the recovered store's extent
   ([Invalid_argument]) or a row decode failure on never-written
   content ([Invalid_argument]/[Failure]/[Value.Type_error]) — are
   treated as the tail; an integrity violation
   ({!Pager.Integrity_failure}) is tamper detection and must
   propagate, never masquerade as truncation. *)
let reload t =
  let arity = Schema.arity t.schema in
  let kept = ref [] in
  let count = ref 0 in
  let last = ref None in
  (try
     List.iter
       (fun page ->
         let payload = Pager.read t.pager page in
         let nrows =
           (Char.code payload.[0] lsl 8) lor Char.code payload.[1]
         in
         let off = ref 2 in
         for _ = 1 to nrows do
           let _, next = Row.decode ~arity payload !off in
           off := next
         done;
         kept := page :: !kept;
         count := !count + nrows;
         last := Some (page, nrows, String.sub payload 2 (!off - 2)))
       (stored_pages t)
   with Invalid_argument _ | Failure _ | Value.Type_error _ ->
     () (* unreadable tail: rolled-back allocation *));
  t.pages <- !kept;
  t.row_count <- !count;
  Buffer.clear t.cur_buf;
  (match !last with
  | None ->
      t.cur_page <- None;
      t.cur_rows <- 0
  | Some (page, nrows, rows_bytes) ->
      t.cur_page <- Some page;
      t.cur_rows <- nrows;
      Buffer.add_string t.cur_buf rows_bytes);
  t.dirty <- false

let iter_pages t pages ~f =
  flush t;
  let arity = Schema.arity t.schema in
  Pager.scan t.pager pages ~f:(fun page payload ->
      let nrows = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
      let off = ref 2 in
      for _ = 1 to nrows do
        let row, next = Row.decode ~arity payload !off in
        f ~page row;
        off := next
      done)

let iter t ~f = iter_pages t (stored_pages t) ~f:(fun ~page:_ row -> f row)

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun row -> acc := row :: !acc);
  List.rev !acc

(* Rewrite the file with [f] applied to every row ([None] deletes).
   Used by UPDATE/DELETE: pages are rewritten in place, surplus pages
   left allocated but empty. Returns number of affected rows. *)
let rewrite t ~f =
  let rows = to_list t in
  let affected = ref 0 in
  let kept =
    List.filter_map
      (fun row ->
        match f row with
        | `Keep -> Some row
        | `Replace row' ->
            incr affected;
            Some row'
        | `Delete ->
            incr affected;
            None)
      rows
  in
  (* reset and re-append into the existing page list *)
  let old_pages = stored_pages t in
  t.pages <- [];
  t.row_count <- 0;
  t.cur_page <- None;
  Buffer.clear t.cur_buf;
  t.cur_rows <- 0;
  t.dirty <- false;
  let available = ref old_pages in
  let take_page () =
    match !available with
    | p :: rest ->
        available := rest;
        p
    | [] -> Pager.allocate t.pager
  in
  List.iter
    (fun row ->
      let encoded = Row.encode row in
      (match t.cur_page with
      | Some _ when Buffer.length t.cur_buf + String.length encoded + 2
                    <= Pager.capacity t.pager ->
          ()
      | Some _ | None ->
          flush_current t;
          let page = take_page () in
          t.pages <- page :: t.pages;
          t.cur_page <- Some page;
          Buffer.clear t.cur_buf;
          t.cur_rows <- 0);
      Buffer.add_string t.cur_buf encoded;
      t.cur_rows <- t.cur_rows + 1;
      t.row_count <- t.row_count + 1;
      t.dirty <- true)
    kept;
  flush t;
  (* zero out any now-unused pages *)
  List.iter (fun p -> Pager.write t.pager p "\000\000") !available;
  !affected
