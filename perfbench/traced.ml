(* The traced server: the name server assembled from the library the
   way [smalldb-ns serve] assembles it with its default flags, with the
   benchmark's wrappers around the two seams the library exposes — the
   [Fs.t] record it stores through and each accepted RPC transport.

   A storage span's parent is the request open on the same thread: the
   RPC server handles each connection on its own thread, from the
   [recv] that returns a request to the [send] of its reply. *)

module Fs = Sdb_storage.Fs
module P = Sdb_pickle.Pickle
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Ns = Sdb_nameserver.Nameserver

(* Open request per thread, indexed by thread id; -1 when idle.  A
   server lives for one benchmark phase and creates a few dozen
   threads, far fewer than the table's size. *)
let cur_req = Array.make 1024 (-1)
let tid () = Thread.id (Thread.self ())

let finish spans ~kind ~arg ~arg2 t0 =
  let th = tid () in
  Spans.record spans ~kind ~t0 ~t1:(Spans.now ()) ~thread:th
    ~req:cur_req.(th land 1023) ~arg ~arg2

(* Run [f] inside a span; [size] turns its result into the span's
   byte count. *)
let timed_with spans ~kind ~arg ~size f =
  let t0 = Spans.now () in
  match f () with
  | v ->
    finish spans ~kind ~arg ~arg2:(size v) t0;
    v
  | exception e ->
    finish spans ~kind ~arg ~arg2:0 t0;
    raise e

let timed spans ~kind ~arg ?(arg2 = 0) f = timed_with spans ~kind ~arg ~size:(fun _ -> arg2) f

let wrap_writer spans ~header (w : Fs.writer) =
  let cls = Spans.file_class w.Fs.w_file in
  (* Wal.Writer.create syncs the header of a new log before any entry;
     sdb_wal_syncs_total counts only the syncs after it. *)
  let header_pending = ref header in
  {
    w with
    Fs.w_write =
      (fun s ->
        timed spans ~kind:Spans.fs_write ~arg:cls ~arg2:(String.length s) (fun () ->
            w.Fs.w_write s));
    w_sync =
      (fun () ->
        let h = !header_pending in
        header_pending := false;
        timed spans ~kind:Spans.fs_fsync ~arg:cls ~arg2:(if h then 1 else 0) w.Fs.w_sync);
    w_close = (fun () -> timed spans ~kind:Spans.fs_meta ~arg:cls w.Fs.w_close);
  }

let wrap_reader spans (r : Fs.reader) =
  let cls = Spans.file_class r.Fs.r_file in
  {
    r with
    Fs.r_read =
      (fun buf pos len ->
        timed_with spans ~kind:Spans.fs_read ~arg:cls ~size:Fun.id (fun () ->
            r.Fs.r_read buf pos len));
    r_seek = (fun off -> timed spans ~kind:Spans.fs_meta ~arg:cls (fun () -> r.Fs.r_seek off));
    r_close = (fun () -> timed spans ~kind:Spans.fs_meta ~arg:cls r.Fs.r_close);
  }

let wrap_random spans (rw : Fs.random) =
  let cls = Spans.file_class rw.Fs.rw_file in
  {
    rw with
    Fs.pread =
      (fun ~off buf pos len ->
        timed spans ~kind:Spans.fs_read ~arg:cls ~arg2:len (fun () ->
            rw.Fs.pread ~off buf pos len));
    pwrite =
      (fun ~off s ->
        timed spans ~kind:Spans.fs_write ~arg:cls ~arg2:(String.length s) (fun () ->
            rw.Fs.pwrite ~off s));
    rw_sync = (fun () -> timed spans ~kind:Spans.fs_fsync ~arg:cls rw.Fs.rw_sync);
    rw_close = (fun () -> timed spans ~kind:Spans.fs_meta ~arg:cls rw.Fs.rw_close);
  }

let wrap_fs spans (fs : Fs.t) =
  let cur_log = ref None in
  let meta name f = timed spans ~kind:Spans.fs_meta ~arg:(Spans.file_class name) f in
  let opened name f = timed spans ~kind:Spans.fs_open ~arg:(Spans.file_class name) f in
  {
    fs with
    Fs.list_files = (fun () -> meta "" fs.Fs.list_files);
    exists = (fun f -> meta f (fun () -> fs.Fs.exists f));
    file_size = (fun f -> meta f (fun () -> fs.Fs.file_size f));
    open_reader = (fun f -> wrap_reader spans (opened f (fun () -> fs.Fs.open_reader f)));
    create =
      (fun f ->
        let cls = Spans.file_class f in
        (* A new checkpoint records how long the log it retires had
           grown, so the analysis can tell a checkpoint the log-size
           policy called for from a redundant one. *)
        let arg2 =
          match (cls, !cur_log) with
          | 1, Some log -> ( try fs.Fs.file_size log with _ -> -1)
          | _ -> 0
        in
        if cls = 0 then cur_log := Some f;
        wrap_writer spans ~header:(cls = 0)
          (timed spans ~kind:Spans.fs_create ~arg:cls ~arg2 (fun () -> fs.Fs.create f)));
    open_append =
      (fun f ->
        if Spans.file_class f = 0 then cur_log := Some f;
        wrap_writer spans ~header:false (opened f (fun () -> fs.Fs.open_append f)));
    open_random = (fun f -> wrap_random spans (opened f (fun () -> fs.Fs.open_random f)));
    rename = (fun a b -> meta b (fun () -> fs.Fs.rename a b));
    remove = (fun f -> meta f (fun () -> fs.Fs.remove f));
    truncate = (fun f n -> meta f (fun () -> fs.Fs.truncate f n));
  }

(* The RPC request envelope, as Rpc puts it on the wire; decoded only
   to name the method of a finished request. *)
let codec_request =
  P.record3 "rpc.request"
    (P.field "id" P.int (fun (i, _, _) -> i))
    (P.field "meth" P.string (fun (_, m, _) -> m))
    (P.field "args" P.string (fun (_, _, a) -> a))
    (fun i m a -> (i, m, a))

let meth_of msg =
  match P.decode_result codec_request msg with
  | Ok (_, m, _) -> Spans.meth_code m
  | Error _ -> -1

let req_seq = Atomic.make 0
let gc_first_request = ref None

let wrap_server spans (tr : Rpc.Transport.t) =
  let th = tid () in
  let slot = th land 1023 in
  let t_recv = ref 0 and msg = ref "" in
  {
    tr with
    Rpc.Transport.recv =
      (fun () ->
        let m = tr.Rpc.Transport.recv () in
        t_recv := Spans.now ();
        if Option.is_none !gc_first_request then
          gc_first_request := Some (Gc.quick_stat ());
        msg := m;
        cur_req.(slot) <- Atomic.fetch_and_add req_seq 1;
        m);
    send =
      (fun reply ->
        let t1 = Spans.now () in
        let req = cur_req.(slot) in
        cur_req.(slot) <- -1;
        Spans.record spans ~kind:Spans.handle ~t0:!t_recv ~t1 ~thread:th ~req
          ~arg:(meth_of !msg) ~arg2:(String.length reply);
        tr.Rpc.Transport.send reply);
  }

(* [smalldb-ns serve --dir D --socket S] with its defaults: 4 MiB
   log-size checkpoints, no retained generation, the locked read path,
   and the 512-span slow ring at 1 ms. *)
let serve ~dir ~socket ~spans_file ~capacity =
  let spans = Spans.create capacity in
  let fs = wrap_fs spans (Sdb_storage.Real_fs.create ~root:dir) in
  Sdb_obs.Trace.set_sink
    (Some (Sdb_obs.Trace.Slow.install ~capacity:512 ~threshold_s:0.001));
  let config =
    { Smalldb.default_config with policy = Smalldb.Log_bytes_exceeds (4 * 1024 * 1024) }
  in
  let ns = Ns.open_exn ~config fs in
  let listener =
    Rpc.Socket.listen ~path:socket (fun tr -> Proto.serve ns (wrap_server spans tr))
  in
  let stop = ref false in
  let handler _ = stop := true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handler));
  while not !stop do
    Unix.sleepf 0.05
  done;
  let gc1 = Gc.quick_stat () in
  let requests = Atomic.get req_seq in
  Rpc.Socket.shutdown listener;
  Spans.dump spans spans_file;
  let gc0 = Option.value !gc_first_request ~default:gc1 in
  let oc = open_out (spans_file ^ ".gc") in
  Printf.fprintf oc "minor_words %.0f\nmajor_collections %d\nrequests %d\n"
    (gc1.Gc.minor_words -. gc0.Gc.minor_words)
    (gc1.Gc.major_collections - gc0.Gc.major_collections)
    requests;
  close_out oc;
  Ns.close ns
