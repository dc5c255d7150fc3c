(* Span recording for the traced run.  Spans go into arrays allocated
   up front, so recording costs an atomic increment and a few stores,
   and are written out as text once the process is done.  A span whose
   slot is past the capacity is counted in [dropped] and lost; the
   analysis refuses a trace that dropped any. *)

(* Span kinds. *)
let handle = 0 (* server: recv returned .. reply send called; arg = meth *)
let call = 1 (* client: request send .. reply received; arg = meth, arg2 = bytes *)
let fs_write = 2 (* arg = file class, arg2 = bytes *)
let fs_fsync = 3 (* arg = file class, arg2 = 1 for a new log's header sync *)
let fs_read = 4 (* arg = file class, arg2 = bytes *)
let fs_open = 5 (* open an existing file; arg = file class *)
let fs_meta = 6 (* rename, remove, truncate, listing, close; arg = file class *)
let fs_create = 7 (* arg = file class, arg2 = current log size for a new checkpoint *)

(* Methods, as the [arg] of handle and call spans. *)
let meths =
  [| "lookup"; "set_value"; "checkpoint"; "metrics"; "ping"; "digest"; "count_nodes" |]

let meth_code m =
  let rec go i =
    if i = Array.length meths then Array.length meths
    else if String.equal meths.(i) m then i
    else go (i + 1)
  in
  go 0

(* File classes, from the store's naming scheme (Checkpoint_store). *)
let file_class name =
  let has p =
    String.length name >= String.length p
    && String.equal (String.sub name 0 (String.length p)) p
  in
  if has "logfile" then 0
  else if has "checkpoint" then 1
  else if has "version" || has "newversion" then 2
  else 3

type t = {
  kind : int array;
  t0 : int array;  (** monotonic ns *)
  t1 : int array;
  thread : int array;
  req : int array;  (** request sequence; -1 outside any request *)
  arg : int array;
  arg2 : int array;
  next : int Atomic.t;
}

let create capacity =
  let a () = Array.make capacity 0 in
  {
    kind = a ();
    t0 = a ();
    t1 = a ();
    thread = a ();
    req = a ();
    arg = a ();
    arg2 = a ();
    next = Atomic.make 0;
  }

let record t ~kind ~t0 ~t1 ~thread ~req ~arg ~arg2 =
  let i = Atomic.fetch_and_add t.next 1 in
  if i < Array.length t.kind then begin
    t.kind.(i) <- kind;
    t.t0.(i) <- t0;
    t.t1.(i) <- t1;
    t.thread.(i) <- thread;
    t.req.(i) <- req;
    t.arg.(i) <- arg;
    t.arg2.(i) <- arg2
  end

let recorded t = min (Atomic.get t.next) (Array.length t.kind)
let dropped t = max 0 (Atomic.get t.next - Array.length t.kind)

(* One span per line: kind t0 t1 thread req arg arg2. *)
let dump t file =
  let oc = open_out file in
  Printf.fprintf oc "# dropped %d\n" (dropped t);
  for i = 0 to recorded t - 1 do
    Printf.fprintf oc "%d %d %d %d %d %d %d\n" t.kind.(i) t.t0.(i) t.t1.(i)
      t.thread.(i) t.req.(i) t.arg.(i) t.arg2.(i)
  done;
  close_out oc

let now () = Int64.to_int (Sdb_util.Mono.now_ns ())
