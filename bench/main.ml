(* The benchmark harness: regenerates every quantity the paper's
   evaluation reports (experiments E1..E13, see DESIGN.md / EXPERIMENTS.md).

   Each experiment prints a table of real measured values next to the
   1987-modelled values derived from operation counters (Costmodel) and
   the paper's own numbers.  Run everything:

     dune exec bench/main.exe

   Select experiments or shrink sizes:

     dune exec bench/main.exe -- --only e2,e7 --quick *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module P = Sdb_pickle.Pickle
module Ns = Sdb_nameserver.Nameserver
module Data = Sdb_nameserver.Ns_data
module Store = Sdb_checkpoint.Checkpoint_store
module Rng = Sdb_util.Rng
module Histogram = Sdb_util.Histogram
module Cost = Sdb_costmodel.Costmodel
module Metrics = Sdb_obs.Metrics
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Replica = Sdb_replica.Replica
module B = Sdb_baselines
open Workloads

let costs = Cost.microvax_1987

(* Bench owns stdout; the library only renders (sdb_lint print-in-lib). *)
module Tablefmt = struct
  include Sdb_util.Tablefmt

  let print ?align ~header rows = print_string (render ?align ~header rows)
end

(* Values sized so that one pickled update carries roughly the ~300
   bytes of parameters behind the paper's 22 ms pickle time. *)
let paper_value_len = 256

(* ------------------------------------------------------------------ *)
(* E1: enquiry latency                                                 *)

let e1 ~quick () =
  section "e1" "enquiry cost: pure virtual-memory lookup";
  let target = if quick then 256 * 1024 else 1 lsl 20 in
  let entries = entries_for_bytes target in
  let _store, fs, ns = build_ns ~entries ~seed:11 () in
  let rng = Rng.create ~seed:12 in
  let lookups = if quick then 50_000 else 200_000 in
  for _ = 1 to 1000 do
    ignore (Ns.lookup ns (random_path rng entries))
  done;
  let before = Fs.Counters.copy fs.Fs.counters in
  let (), elapsed_ms =
    time_ms (fun () ->
        for _ = 1 to lookups do
          ignore (Ns.lookup ns (random_path rng entries))
        done)
  in
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  let mean_us = elapsed_ms *. 1000.0 /. float_of_int lookups in
  let model =
    Cost.model costs
      {
        Cost.explore_ops = 1;
        modify_ops = 0;
        pickle_ops = 0;
        pickled_bytes = 0;
        unpickle_ops = 0;
        unpickled_bytes = 0;
        disk = Fs.Counters.create ();
        rpc_round_trips = 0;
      }
  in
  Tablefmt.print
    ~header:
      [ "db weight"; "entries"; "lookups"; "mean"; "disk reads"; "model 1987"; "paper" ]
    [
      [
        fmt_bytes (db_weight ns);
        string_of_int entries;
        string_of_int lookups;
        Printf.sprintf "%.2f us" mean_us;
        string_of_int d.Fs.Counters.data_reads;
        fmt_ms model.Cost.total_model_ms;
        "5 ms";
      ];
    ];
  note "enquiries touch no disk structures: %d reads during %d lookups"
    d.Fs.Counters.data_reads lookups;
  paper "\"Enquiries take only the time necessary to access the virtual memory structure\""

(* ------------------------------------------------------------------ *)
(* E2: update cost breakdown                                           *)

let e2 ~quick () =
  section "e2" "update cost: explore + pickle + one log write + modify";
  let entries = entries_for_bytes (if quick then 256 * 1024 else 1 lsl 20) in
  let _store, fs, ns = build_ns ~entries ~seed:21 () in
  let rng = Rng.create ~seed:22 in
  let updates = if quick then 1_000 else 3_000 in
  let db = Ns.db ns in
  (* Start the registry from zero so its histograms cover exactly this
     experiment's updates (build_ns also commits updates). *)
  Metrics.reset ();
  let before_phase = (Ns.stats ns).Smalldb.phase in
  let snap = Cost.snapshot fs in
  let (), elapsed_ms =
    time_ms (fun () ->
        for _ = 1 to updates do
          let path = random_path rng entries in
          let value = Rng.string rng ~len:paper_value_len in
          (* The paper's step 1 explores the structure to verify
             preconditions; mirror it with a lookup. *)
          match
            Ns.Db.update_checked db
              ~precondition:(fun root ->
                ignore (Data.pfind root path);
                Ok ())
              (Ns.Set_value (path, Some value))
          with
          | Ok () -> ()
          | Error _ -> assert false
        done)
  in
  let after_phase = (Ns.stats ns).Smalldb.phase in
  let activity = Cost.since ~explore_ops:updates ~modify_ops:updates snap fs in
  let model = Cost.model costs activity in
  let per_phase name measured_s model_ms paper_ms =
    [
      name;
      Printf.sprintf "%.1f us" (measured_s *. 1e6 /. float_of_int updates);
      Printf.sprintf "%.1f ms" (model_ms /. float_of_int updates);
      paper_ms;
    ]
  in
  let d f = f after_phase -. f before_phase in
  Tablefmt.print
    ~header:[ "phase"; "measured/update"; "model 1987"; "paper" ]
    [
      per_phase "explore (verify)"
        (d (fun p -> p.Smalldb.verify_s))
        model.Cost.explore_model_ms "6 ms";
      per_phase "pickle parameters"
        (d (fun p -> p.Smalldb.pickle_s))
        model.Cost.pickle_model_ms "22 ms";
      per_phase "log write (commit)"
        (d (fun p -> p.Smalldb.log_s))
        model.Cost.disk_model_ms "20 ms";
      per_phase "modify memory"
        (d (fun p -> p.Smalldb.apply_s))
        model.Cost.modify_model_ms "6 ms";
      [
        "total";
        Printf.sprintf "%.1f us" (elapsed_ms *. 1000.0 /. float_of_int updates);
        Printf.sprintf "%.1f ms" (model.Cost.total_model_ms /. float_of_int updates);
        "54 ms";
      ];
    ];
  let pickle_share = model.Cost.pickle_model_ms /. model.Cost.total_model_ms *. 100.0 in
  (* The same phases as seen by the metrics registry: distributions,
     not just the means above. *)
  let registry_row phase =
    let s =
      Metrics.histogram_snapshot
        (Metrics.histogram "sdb_update_phase_seconds" ~labels:[ ("phase", phase) ])
    in
    let us v = Printf.sprintf "%.1f us" (v *. 1e6) in
    [
      phase; string_of_int s.Histogram.s_count; us s.Histogram.s_mean;
      us s.Histogram.s_p50; us s.Histogram.s_p99; us s.Histogram.s_max;
    ]
  in
  Tablefmt.print
    ~header:[ "phase (registry)"; "count"; "mean"; "p50"; "p99"; "max" ]
    (List.map registry_row [ "verify"; "pickle"; "log"; "apply" ]);
  note "one disk write + one fsync per update: %d writes, %d syncs for %d updates"
    activity.Cost.disk.Fs.Counters.data_writes activity.Cost.disk.Fs.Counters.syncs
    updates;
  note "pickling is %.0f%% of the modelled update cost" pickle_share;
  paper "\"about 40%% of the cost of an update is in PickleWrite\""

(* ------------------------------------------------------------------ *)
(* E3: checkpoint cost vs database size                                *)

let e3 ~quick () =
  section "e3" "checkpoint cost vs database size";
  let sizes =
    if quick then [ 64 * 1024; 256 * 1024 ]
    else [ 64 * 1024; 256 * 1024; 1 lsl 20; 4 * (1 lsl 20) ]
  in
  let rows =
    List.map
      (fun target ->
        let entries = entries_for_bytes target in
        let _store, fs, ns = build_ns ~entries ~seed:31 () in
        let before = (Ns.stats ns).Smalldb.phase in
        let snap = Cost.snapshot fs in
        let (), elapsed_ms = time_ms (fun () -> Ns.checkpoint ns) in
        let after = (Ns.stats ns).Smalldb.phase in
        let model = Cost.model costs (Cost.since snap fs) in
        let gen = (Ns.stats ns).Smalldb.generation in
        let blob = fs.Fs.file_size (Store.checkpoint_file gen) in
        [
          fmt_bytes (db_weight ns);
          string_of_int entries;
          fmt_bytes blob;
          fmt_ms elapsed_ms;
          fmt_ms ((after.Smalldb.ckpt_pickle_s -. before.Smalldb.ckpt_pickle_s) *. 1000.);
          fmt_ms ((after.Smalldb.ckpt_write_s -. before.Smalldb.ckpt_write_s) *. 1000.);
          Printf.sprintf "%.0f s (%.0f + %.0f)"
            (model.Cost.total_model_ms /. 1000.)
            (model.Cost.pickle_model_ms /. 1000.)
            (model.Cost.disk_model_ms /. 1000.);
        ])
      sizes
  in
  Tablefmt.print
    ~header:
      [ "db weight"; "entries"; "checkpoint"; "measured"; "pickle"; "disk"; "model 1987" ]
    rows;
  paper "a 1 MB checkpoint takes about one minute: 55 s pickling + 5 s disk writes"

(* ------------------------------------------------------------------ *)
(* E4: restart cost vs log length                                      *)

let e4 ~quick () =
  section "e4" "restart: read checkpoint + replay log";
  let target = if quick then 256 * 1024 else 1 lsl 20 in
  let entries = entries_for_bytes target in
  let log_lengths = if quick then [ 0; 100; 1000 ] else [ 0; 100; 1000; 5000 ] in
  let rows =
    List.map
      (fun loglen ->
        let _store, fs, ns = build_ns ~entries ~seed:41 () in
        let rng = Rng.create ~seed:42 in
        for _ = 1 to loglen do
          Ns.set_value ns (random_path rng entries)
            (Some (Rng.string rng ~len:paper_value_len))
        done;
        Ns.close ns;
        let snap = Cost.snapshot fs in
        let ns2, elapsed_ms = time_ms (fun () -> Ns.open_exn fs) in
        let model = Cost.model costs (Cost.since ~modify_ops:loglen snap fs) in
        let s = Ns.stats ns2 in
        let restore_ms = s.Smalldb.phase.Smalldb.restore_s *. 1000. in
        let replay_ms = s.Smalldb.phase.Smalldb.replay_s *. 1000. in
        let per_entry =
          if loglen = 0 then "-"
          else Printf.sprintf "%.1f us" (replay_ms *. 1000. /. float_of_int loglen)
        in
        Ns.close ns2;
        [
          string_of_int loglen;
          fmt_ms elapsed_ms;
          fmt_ms restore_ms;
          fmt_ms replay_ms;
          per_entry;
          Printf.sprintf "%.1f s" (model.Cost.total_model_ms /. 1000.);
        ])
      log_lengths
  in
  Tablefmt.print
    ~header:
      [ "log entries"; "restart"; "read ckpt"; "replay"; "replay/entry"; "model 1987" ]
    rows;
  paper "restart takes about 20 s to read the checkpoint plus about 20 ms per log entry"

(* ------------------------------------------------------------------ *)
(* E5: sustained update throughput                                     *)

let e5 ~quick () =
  section "e5" "sustained update throughput (and the group-commit ablation)";
  let entries = entries_for_bytes (256 * 1024) in
  let updates = if quick then 2_000 else 10_000 in
  let run batch =
    let _store, fs, ns = build_ns ~entries ~seed:51 () in
    let rng = Rng.create ~seed:52 in
    let db = Ns.db ns in
    let snap = Cost.snapshot fs in
    let (), elapsed_ms =
      time_ms (fun () ->
          if batch = 1 then
            for _ = 1 to updates do
              Ns.set_value ns (random_path rng entries)
                (Some (Rng.string rng ~len:paper_value_len))
            done
          else
            for _ = 1 to updates / batch do
              let group =
                List.init batch (fun _ ->
                    Ns.Set_value
                      (random_path rng entries, Some (Rng.string rng ~len:paper_value_len)))
              in
              Ns.Db.update_batch db group
            done)
    in
    let model =
      Cost.model costs (Cost.since ~explore_ops:updates ~modify_ops:updates snap fs)
    in
    let model_tps = float_of_int updates /. (model.Cost.total_model_ms /. 1000.) in
    [
      (if batch = 1 then "one commit per update"
       else Printf.sprintf "group commit x%d" batch);
      string_of_int updates;
      fmt_ms elapsed_ms;
      Printf.sprintf "%.0f/s" (float_of_int updates /. elapsed_ms *. 1000.);
      Printf.sprintf "%.1f/s" model_tps;
    ]
  in
  Tablefmt.print
    ~header:[ "mode"; "updates"; "elapsed"; "measured rate"; "model 1987 rate" ]
    [ run 1; run 10 ];
  paper
    "\"more than 15 transactions per second\"; the only faster schemes record \
     multiple commit records in a single log entry (the group-commit row)"

(* ------------------------------------------------------------------ *)
(* E6: remote access over RPC                                          *)

let e6 ~quick () =
  section "e6" "remote enquiry and update (simulated 8 ms round trip)";
  let entries = entries_for_bytes (64 * 1024) in
  let _store, _fs, ns = build_ns ~entries ~seed:61 () in
  (* 4 ms each way = the paper's 8 ms round-trip network cost. *)
  let client_t, server_t = Rpc.Inproc.pair ~delay_s:0.004 () in
  let server = Thread.create (fun () -> Proto.serve ns server_t) () in
  let client = Proto.Client.create client_t in
  let rng = Rng.create ~seed:62 in
  let n = if quick then 50 else 200 in
  let bench f iters =
    let h = Histogram.create () in
    for _ = 1 to iters do
      let (), ms = time_ms f in
      Histogram.record h ms
    done;
    h
  in
  let lookup_h =
    bench (fun () -> ignore (Proto.Client.lookup client (random_path rng entries))) n
  in
  let update_h =
    bench
      (fun () ->
        Proto.Client.set_value client (random_path rng entries)
          (Some (Rng.string rng ~len:paper_value_len)))
      (n / 2)
  in
  Tablefmt.print
    ~header:[ "operation"; "measured mean"; "measured p99"; "model 1987"; "paper" ]
    [
      [
        "remote enquiry";
        fmt_ms (Histogram.mean lookup_h);
        fmt_ms (Histogram.percentile lookup_h 99.);
        Printf.sprintf "%.0f ms" (costs.Cost.explore_ms +. costs.Cost.rpc_round_trip_ms);
        "13 ms";
      ];
      [
        "remote update";
        fmt_ms (Histogram.mean update_h);
        fmt_ms (Histogram.percentile update_h 99.);
        "62 ms";
        "62 ms";
      ];
    ];
  note "measured values carry only the simulated 8 ms network; modern local costs are ~us";
  paper "enquiry 13 ms, update 62 ms elapsed = local cost + 8 ms round trip";
  Proto.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join server

(* ------------------------------------------------------------------ *)
(* E7: the S2 alternative techniques                                   *)

let measure_technique (module Db : B.Kv_intf.S) size =
  let store = Mem.create_store ~seed:71 () in
  let fs = Mem.fs store in
  let db = match Db.open_ fs with Ok d -> d | Error e -> failwith e in
  let rng = Rng.create ~seed:72 in
  for i = 0 to size - 1 do
    Db.set db (kv_key i) (kv_value rng)
  done;
  (* Give checkpoint-based designs their quiescent state, as a long-
     running server would have. *)
  Db.quiesce db;
  let n_updates = 50 in
  let before = Fs.Counters.copy fs.Fs.counters in
  let snap = Cost.snapshot fs in
  let (), upd_ms =
    time_ms (fun () ->
        for _ = 1 to n_updates do
          Db.set db (kv_key (Rng.int rng size)) (kv_value rng)
        done)
  in
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  let model =
    Cost.model costs (Cost.since ~explore_ops:n_updates ~modify_ops:n_updates snap fs)
  in
  let n_gets = 500 in
  let before_gets = Fs.Counters.copy fs.Fs.counters in
  let (), get_ms =
    time_ms (fun () ->
        for _ = 1 to n_gets do
          ignore (Db.get db (kv_key (Rng.int rng size)))
        done)
  in
  let dg = Fs.Counters.diff ~after:fs.Fs.counters ~before:before_gets in
  Db.close db;
  [
    Db.technique;
    Printf.sprintf "%.1f" (float_of_int d.Fs.Counters.data_writes /. float_of_int n_updates);
    Printf.sprintf "%.1f" (float_of_int d.Fs.Counters.syncs /. float_of_int n_updates);
    fmt_bytes (d.Fs.Counters.bytes_written / n_updates);
    Printf.sprintf "%.0f us" (upd_ms *. 1000. /. float_of_int n_updates);
    Printf.sprintf "%.0f ms" (model.Cost.total_model_ms /. float_of_int n_updates);
    Printf.sprintf "%.1f" (float_of_int dg.Fs.Counters.data_reads /. float_of_int n_gets);
    Printf.sprintf "%.1f us" (get_ms *. 1000. /. float_of_int n_gets);
  ]

let e7 ~quick () =
  section "e7" "techniques compared: disk cost per update and per enquiry";
  let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 5000 ] in
  List.iter
    (fun size ->
      Printf.printf "\n-- %d keys, 100-byte values --\n" size;
      Tablefmt.print
        ~header:
          [
            "technique"; "wr/upd"; "sync/upd"; "bytes/upd"; "upd (meas)"; "upd (1987)";
            "rd/get"; "get (meas)";
          ]
        [
          measure_technique (module B.Textfile_db) size;
          measure_technique (module B.Adhoc_db) size;
          measure_technique (module B.Atomic_db) size;
          measure_technique (module B.Smalldb_kv) size;
        ])
    sizes;
  paper
    "text files rewrite everything; ad-hoc schemes need ~1 write but are fragile; \
     atomic commit needs 2 writes (\"a factor of two worse\"); this design: 1 write, \
     enquiries never touch the disk"

(* ------------------------------------------------------------------ *)
(* E8: checkpoint frequency trade-off                                  *)

let e8 ~quick () =
  section "e8" "checkpoint frequency: disk traffic vs restart time";
  let entries = entries_for_bytes (64 * 1024) in
  let stream = if quick then 2_000 else 5_000 in
  let policies =
    [
      ("every 100 updates", Smalldb.Every_n_updates 100);
      ("every 500 updates", Smalldb.Every_n_updates 500);
      ("every 2000 updates", Smalldb.Every_n_updates 2000);
      ("never (manual only)", Smalldb.Manual);
    ]
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let config = { Smalldb.default_config with policy } in
        let _store, fs, ns0 = build_ns ~entries ~seed:81 () in
        (* Reopen under the policy so its counter starts at zero. *)
        Ns.close ns0;
        let ns = Ns.open_exn ~config fs in
        let rng = Rng.create ~seed:82 in
        Fs.Counters.reset fs.Fs.counters;
        for _ = 1 to stream do
          Ns.set_value ns (random_path rng entries)
            (Some (Rng.string rng ~len:paper_value_len))
        done;
        let s = Ns.stats ns in
        let traffic = fs.Fs.counters.Fs.Counters.bytes_written in
        Ns.close ns;
        let snap = Cost.snapshot fs in
        let ns2, restart_ms = time_ms (fun () -> Ns.open_exn fs) in
        let model =
          Cost.model costs (Cost.since ~modify_ops:s.Smalldb.log_entries snap fs)
        in
        Ns.close ns2;
        [
          label;
          string_of_int s.Smalldb.checkpoints_written;
          fmt_bytes traffic;
          string_of_int s.Smalldb.log_entries;
          fmt_ms restart_ms;
          Printf.sprintf "%.1f s" (model.Cost.total_model_ms /. 1000.);
        ])
      policies
  in
  Tablefmt.print
    ~header:
      [
        "checkpoint policy"; "ckpts"; "disk traffic"; "log at crash"; "restart (meas)";
        "restart (1987)";
      ]
    rows;
  paper
    "\"The implementor can trade off between the time required for a restart and \
     the availability for updates by deciding how often to make a checkpoint\""

(* ------------------------------------------------------------------ *)
(* E9: the three-mode lock never blocks enquiries on disk writes       *)

let slow_sync_fs fs delay =
  let wrap w =
    {
      w with
      Fs.w_sync =
        (fun () ->
          Thread.delay delay;
          w.Fs.w_sync ());
    }
  in
  {
    fs with
    Fs.create = (fun name -> wrap (fs.Fs.create name));
    open_append = (fun name -> wrap (fs.Fs.open_append name));
  }

let e9 ~quick () =
  section "e9" "reader latency while updates hit a slow disk (5 ms fsync)";
  let updates = if quick then 60 else 150 in
  let run coarse =
    let store = Mem.create_store ~seed:91 () in
    let fs = slow_sync_fs (Mem.fs store) 0.005 in
    let db = B.Smalldb_kv.Db.open_exn fs in
    let giant_lock = Mutex.create () in
    let locked f =
      if coarse then begin
        Mutex.lock giant_lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock giant_lock) f
      end
      else f ()
    in
    let h = Histogram.create () in
    let stalled = ref 0 in
    let stop = ref false in
    let reader =
      Thread.create
        (fun () ->
          while not !stop do
            let (), ms =
              time_ms (fun () ->
                  locked (fun () -> ignore (B.Smalldb_kv.Db.query db Hashtbl.length)))
            in
            Histogram.record h ms;
            if ms >= 1.0 then incr stalled;
            Thread.yield ()
          done)
        ()
    in
    let (), writer_ms =
      time_ms (fun () ->
          for i = 1 to updates do
            locked (fun () ->
                B.Smalldb_kv.Db.update db (B.Smalldb_kv.Set (kv_key i, "v")))
          done)
    in
    stop := true;
    Thread.join reader;
    B.Smalldb_kv.Db.close db;
    [
      (if coarse then "exclusive for whole update"
       else "paper locks (update, then exclusive)");
      Printf.sprintf "%.0f/s" (float_of_int updates /. writer_ms *. 1000.);
      string_of_int (Histogram.count h);
      Printf.sprintf "%.1f us" (Histogram.mean h *. 1000.);
      string_of_int !stalled;
      Printf.sprintf "%.2f ms" (Histogram.max h);
    ]
  in
  Tablefmt.print
    ~header:
      [ "locking"; "update rate"; "reads"; "read mean"; "reads stalled >1ms"; "read max" ]
    [ run false; run true ];
  paper
    "\"these rules never exclude enquiry operations during disk transfers, only \
     during virtual memory operations\""

(* ------------------------------------------------------------------ *)
(* E10: transient-failure sweep                                        *)

module CrashApp = struct
  type state = (string, string) Hashtbl.t
  type update = Set of string * string

  let name = "bench-crash"
  let codec_state = P.hashtbl P.string P.string

  let codec_update =
    P.conv ~name:"bench-crash.update"
      (fun (Set (k, v)) -> (k, v))
      (fun (k, v) -> Set (k, v))
      (P.pair P.string P.string)

  let init () = Hashtbl.create 16

  let apply st (Set (k, v)) =
    Hashtbl.replace st k v;
    st
end

module CrashDb = Smalldb.Make (CrashApp)

let e10 ~quick () =
  section "e10" "crash injection at every disk operation";
  ignore quick;
  let n_updates = 12 in
  let run_mode mode mode_name =
    let points = ref 0 and exact = ref 0 and inflight = ref 0 in
    let lost = ref 0 and phantom = ref 0 and torn_tails = ref 0 in
    let k = ref 1 in
    let continue = ref true in
    while !continue do
      let store = Mem.create_store ~seed:(1000 + !k) () in
      let fs = Mem.fs store in
      let committed = ref 0 in
      let crashed = ref false in
      (try
         let db = CrashDb.open_exn fs in
         Mem.set_crash_after store ~ops:!k ~mode;
         for i = 1 to n_updates do
           CrashDb.update db (CrashApp.Set (Printf.sprintf "%04d" i, "v"));
           incr committed;
           if i mod 5 = 0 then CrashDb.checkpoint db
         done;
         Mem.disarm_crash store
       with Mem.Crash -> crashed := true);
      Mem.disarm_crash store;
      if not !crashed then continue := false
      else begin
        incr points;
        let db = CrashDb.open_exn fs in
        let n = CrashDb.query db Hashtbl.length in
        let r = (CrashDb.stats db).Smalldb.recovery in
        if r.Smalldb.log_tail_discarded then incr torn_tails;
        if n < !committed then incr lost
        else if n > !committed + 1 then incr phantom
        else if n = !committed then incr exact
        else incr inflight;
        CrashDb.close db
      end;
      incr k
    done;
    [
      mode_name;
      string_of_int !points;
      string_of_int !exact;
      string_of_int !inflight;
      string_of_int !torn_tails;
      string_of_int !lost;
      string_of_int !phantom;
    ]
  in
  Tablefmt.print
    ~header:
      [
        "crash mode"; "points"; "exact"; "in-flight kept"; "torn tails"; "LOST"; "PHANTOM";
      ]
    [ run_mode Mem.Clean "clean"; run_mode Mem.Torn "torn pages" ];
  paper
    "\"if we crash before the write occurs on the disk, the update is not visible \
     after a restart; if we crash after the write completes, the entire update \
     will be completed after a restart\" -- LOST and PHANTOM must be zero"

(* ------------------------------------------------------------------ *)
(* E11: hard errors                                                    *)

let e11 ~quick () =
  section "e11" "hard errors: damaged media and the recovery options";
  ignore quick;
  let rows = ref [] in
  let add scenario outcome = rows := [ scenario; outcome ] :: !rows in
  (* (a) damaged log entry, Skip_damaged *)
  let () =
    let config = { Smalldb.default_config with log_recovery = `Skip_damaged } in
    let store = Mem.create_store ~seed:111 () in
    let fs = Mem.fs store in
    let db = CrashDb.open_exn ~config fs in
    for i = 1 to 5 do
      CrashDb.update db (CrashApp.Set (Printf.sprintf "%d" i, String.make 2000 'x'))
    done;
    CrashDb.close db;
    Mem.damage store ~file:(Store.log_file 0) ~offset:2500 ~len:64;
    match CrashDb.open_ ~config fs with
    | Ok db2 ->
      let r = (CrashDb.stats db2).Smalldb.recovery in
      add "damaged log entry, skip-damaged policy"
        (Printf.sprintf "recovered; %d replayed, %d skipped" r.Smalldb.replayed
           r.Smalldb.skipped_damaged);
      CrashDb.close db2
    | Error e -> add "damaged log entry, skip-damaged policy" ("FAILED: " ^ e)
  in
  (* (b) damaged checkpoint with retained previous generation *)
  let () =
    let config = { Smalldb.default_config with retain_previous = true } in
    let store = Mem.create_store ~seed:112 () in
    let fs = Mem.fs store in
    let db = CrashDb.open_exn ~config fs in
    for i = 1 to 5 do
      CrashDb.update db (CrashApp.Set (string_of_int i, "v"))
    done;
    CrashDb.checkpoint db;
    for i = 6 to 8 do
      CrashDb.update db (CrashApp.Set (string_of_int i, "v"))
    done;
    CrashDb.close db;
    Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:8 ~len:16;
    match CrashDb.open_ ~config fs with
    | Ok db2 ->
      let n = CrashDb.query db2 Hashtbl.length in
      add "damaged checkpoint, previous generation retained"
        (Printf.sprintf "recovered all %d updates via previous ckpt + both logs" n);
      CrashDb.close db2
    | Error e -> add "damaged checkpoint, previous generation retained" ("FAILED: " ^ e)
  in
  (* (c) damaged checkpoint without retention *)
  let () =
    let store = Mem.create_store ~seed:113 () in
    let fs = Mem.fs store in
    let db = CrashDb.open_exn fs in
    CrashDb.update db (CrashApp.Set ("k", "v"));
    CrashDb.checkpoint db;
    CrashDb.close db;
    Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:4 ~len:8;
    match CrashDb.open_ fs with
    | Ok _ -> add "damaged checkpoint, no retention" "UNEXPECTEDLY recovered"
    | Error _ ->
      add "damaged checkpoint, no retention"
        "local recovery refused; restore from replica/backup"
  in
  (* (d) replica restore *)
  let () =
    let store = Mem.create_store ~seed:114 () in
    let ns = Ns.open_exn (Mem.fs store) in
    Ns.set_value ns [ "svc"; "a" ] (Some "1");
    Ns.set_value ns [ "svc"; "b" ] (Some "2");
    let client_t, server_t = Rpc.Inproc.pair () in
    let th = Thread.create (fun () -> Proto.serve ns server_t) () in
    let client = Proto.Client.create client_t in
    let fresh = Mem.create_store ~seed:115 () in
    (match Replica.clone_from client (Mem.fs fresh) with
    | Ok cloned ->
      let same = Replica.digest cloned = Replica.digest ns in
      add "replica restored from a peer"
        (if same then "clone digest matches source" else "DIGEST MISMATCH");
      Ns.close cloned
    | Error e -> add "replica restored from a peer" ("FAILED: " ^ e));
    Proto.Client.close client;
    server_t.Rpc.Transport.close ();
    Thread.join th
  in
  Tablefmt.print
    ~align:[ Tablefmt.Left; Tablefmt.Left ]
    ~header:[ "scenario"; "outcome" ]
    (List.rev !rows);
  paper
    "recovery from a hard error in the log: ignore the damaged entry; in the \
     checkpoint: previous checkpoint + both logs; or restore from another replica"

(* ------------------------------------------------------------------ *)
(* E12: disk space requirement                                         *)

let e12 ~quick () =
  section "e12" "disk space: checkpoints, log, and the retention option";
  let entries = entries_for_bytes (if quick then 64 * 1024 else 256 * 1024) in
  let run retain =
    let config = { Smalldb.default_config with retain_previous = retain } in
    let store, fs, ns = build_ns ~config ~entries ~seed:121 () in
    let rng = Rng.create ~seed:122 in
    for _ = 1 to 300 do
      Ns.set_value ns (random_path rng entries)
        (Some (Rng.string rng ~len:paper_value_len))
    done;
    Ns.checkpoint ns;
    for _ = 1 to 100 do
      Ns.set_value ns (random_path rng entries)
        (Some (Rng.string rng ~len:paper_value_len))
    done;
    let live = db_weight ns in
    let files = Store.disk_files fs in
    let total = Mem.total_bytes store in
    let ckpt_size =
      List.fold_left
        (fun acc (name, size) ->
          if String.length name > 10 && String.sub name 0 10 = "checkpoint" then
            max acc size
          else acc)
        0 files
    in
    Ns.close ns;
    [
      (if retain then "retain previous generation" else "minimal (paper default)");
      string_of_int (List.length files);
      fmt_bytes total;
      fmt_bytes live;
      Printf.sprintf "%.1fx" (float_of_int total /. float_of_int live);
      fmt_bytes (total + ckpt_size);
    ]
  in
  Tablefmt.print
    ~header:
      [
        "configuration"; "files"; "on disk"; "live data"; "overhead";
        "peak (during switch)";
      ]
    [ run false; run true ];
  paper
    "\"the total requirement consists of the virtual memory image, two copies of \
     the checkpoint and the log file\"; one extra checkpoint+log for hard errors"

(* ------------------------------------------------------------------ *)
(* E13: simplicity (source line counts)                                *)

let count_lines dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    let total = ref 0 in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then begin
          let ic = open_in (Filename.concat dir f) in
          (try
             while true do
               ignore (input_line ic);
               incr total
             done
           with End_of_file -> ());
          close_in ic
        end)
      (Sys.readdir dir);
    Some !total
  end
  else None

let e13 ~quick () =
  section "e13" "simplicity: source lines vs the paper's implementation";
  ignore quick;
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "lib"))
      [ "."; ".."; "../.."; "../../.." ]
  in
  match root with
  | None -> note "source tree not found from %s; skipping" (Sys.getcwd ())
  | Some root ->
    let lib d = count_lines (Filename.concat root ("lib/" ^ d)) in
    let sum parts =
      List.fold_left
        (fun acc d ->
          match (acc, lib d) with Some a, Some b -> Some (a + b) | _ -> None)
        (Some 0) parts
    in
    let row label parts paper_count =
      [
        label;
        (match sum parts with Some n -> string_of_int n | None -> "?");
        paper_count;
      ]
    in
    Tablefmt.print
      ~align:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ]
      ~header:[ "component"; "this repo (ml+mli)"; "paper (Modula-2+)" ]
      [
        row "checkpoint + log package" [ "wal"; "checkpoint"; "core" ] "638";
        row "name server semantics" [ "nameserver" ] "1404";
        row "pickle package" [ "pickle" ] "1648";
        row "RPC + stubs" [ "rpc" ] "663 + 622";
        row "locking" [ "vlock" ] "(in the 638)";
      ];
    note "interface files double as documentation; the paper counts implementation only";
    paper
      "\"The package for checkpoints and logs ... was implemented by one programmer \
       in about three weeks\""

(* ------------------------------------------------------------------ *)
(* E14: the S7 extension -- partitioned checkpoints over a shared log  *)

module MultiCrashDb = Sdb_multidb.Multidb.Make (CrashApp)
module Multidb = Sdb_multidb.Multidb

let e14 ~quick () =
  section "e14"
    "partitioned checkpoints (the S7 proposal) vs one monolithic checkpoint";
  let keys = if quick then 4_000 else 16_000 in
  let stream = if quick then 2_000 else 4_000 in
  let debt = 1_000 in
  (* Both designs keep the worst-case replay debt at [debt] updates:
     the monolith checkpoints everything every [debt] updates; the
     partitioned store checkpoints one of its P partitions every
     [debt]/P updates. *)
  let value = String.make 100 'v' in
  let run_mono () =
    let store = Mem.create_store ~seed:141 () in
    let fs = Mem.fs store in
    let db = CrashDb.open_exn fs in
    for i = 0 to keys - 1 do
      CrashDb.update db (CrashApp.Set (kv_key i, value))
    done;
    CrashDb.checkpoint db;
    Fs.Counters.reset fs.Fs.counters;
    let blackouts = Histogram.create () in
    let model_blackouts = Histogram.create () in
    let rng = Rng.create ~seed:142 in
    for i = 1 to stream do
      CrashDb.update db (CrashApp.Set (kv_key (Rng.int rng keys), value));
      if i mod debt = 0 then begin
        let snap = Cost.snapshot fs in
        let (), ms = time_ms (fun () -> CrashDb.checkpoint db) in
        Histogram.record blackouts ms;
        Histogram.record model_blackouts
          (Cost.model costs (Cost.since snap fs)).Cost.total_model_ms
      end
    done;
    let traffic = fs.Fs.counters.Fs.Counters.bytes_written in
    CrashDb.close db;
    let _db2, restart_ms = time_ms (fun () -> CrashDb.open_exn fs) in
    (blackouts, model_blackouts, traffic, restart_ms)
  in
  let run_multi partitions =
    let store = Mem.create_store ~seed:143 () in
    let fs = Mem.fs store in
    let config = { Multidb.default_config with log_switch_bytes = 256 * 1024 } in
    let db = MultiCrashDb.open_exn ~config ~partitions fs in
    for i = 0 to keys - 1 do
      MultiCrashDb.update db ~partition:(i mod partitions)
        (CrashApp.Set (kv_key i, value))
    done;
    MultiCrashDb.checkpoint_all db;
    Fs.Counters.reset fs.Fs.counters;
    let blackouts = Histogram.create () in
    let model_blackouts = Histogram.create () in
    let rng = Rng.create ~seed:144 in
    for i = 1 to stream do
      let key = Rng.int rng keys in
      MultiCrashDb.update db ~partition:(key mod partitions)
        (CrashApp.Set (kv_key key, value));
      if i mod (debt / partitions) = 0 then begin
        let snap = Cost.snapshot fs in
        let (), ms = time_ms (fun () -> MultiCrashDb.checkpoint_next db) in
        Histogram.record blackouts ms;
        Histogram.record model_blackouts
          (Cost.model costs (Cost.since snap fs)).Cost.total_model_ms
      end
    done;
    let traffic = fs.Fs.counters.Fs.Counters.bytes_written in
    MultiCrashDb.close db;
    let db2, restart_ms =
      time_ms (fun () -> MultiCrashDb.open_exn ~config ~partitions fs)
    in
    MultiCrashDb.close db2;
    (blackouts, model_blackouts, traffic, restart_ms)
  in
  let row label (blackouts, model_blackouts, traffic, restart_ms) =
    [
      label;
      string_of_int (Histogram.count blackouts);
      fmt_ms (Histogram.mean blackouts);
      fmt_ms (Histogram.max blackouts);
      Printf.sprintf "%.1f s" (Histogram.mean model_blackouts /. 1000.);
      fmt_bytes traffic;
      fmt_ms restart_ms;
    ]
  in
  Tablefmt.print
    ~header:
      [
        "design"; "ckpt events"; "blackout mean"; "blackout max"; "blackout 1987";
        "disk traffic"; "restart";
      ]
    [ row "monolithic (the paper)" (run_mono ());
      row "8 partitions, shared log" (run_multi 8) ];
  note
    "equal replay-debt bound (%d updates): the partitioned store pays the same      total checkpoint traffic in 8x more, 8x shorter update blackouts" debt;
  paper
    "S7: many larger databases could be handled by considering them as multiple \
     separate databases for the purpose of writing checkpoints, with a single \
     log file and more complicated rules for flushing the log"

(* ------------------------------------------------------------------ *)
(* E15: update availability during a checkpoint                        *)

module StrMap = Map.Make (String)

module MapApp = struct
  type state = string StrMap.t
  type update = Set of string * string

  let name = "bench-map"

  let codec_state =
    P.conv ~name:"bench-map.state"
      (fun m -> StrMap.bindings m)
      (fun bindings -> StrMap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.conv ~name:"bench-map.update"
      (fun (Set (k, v)) -> (k, v))
      (fun (k, v) -> Set (k, v))
      (P.pair P.string P.string)

  let init () = StrMap.empty
  let apply st (Set (k, v)) = StrMap.add k v st
end

module MapDb = Smalldb.Make (MapApp)

let e15 ~quick () =
  section "e15"
    "extension: update availability while checkpointing (blocking vs fuzzy)";
  let keys = if quick then 20_000 else 60_000 in
  let run concurrent =
    let store = Mem.create_store ~seed:151 () in
    let fs = Mem.fs store in
    let db = MapDb.open_exn fs in
    for i = 0 to keys - 1 do
      MapDb.update db (MapApp.Set (kv_key i, String.make 48 'x'))
    done;
    (* A writer thread measures its own per-update latency while the
       main thread checkpoints. *)
    let stalls = Histogram.create () in
    let stop = ref false in
    let during = ref 0 in
    (* Throttled to ~1000 updates/s: the interesting regime is a modest
       update rate against a long checkpoint, as in the paper (10/s
       against a one-minute pickle). *)
    let writer =
      Thread.create
        (fun () ->
          let i = ref 0 in
          while not !stop do
            let (), ms =
              time_ms (fun () ->
                  MapDb.update db (MapApp.Set (Printf.sprintf "live%d" !i, "v")))
            in
            incr i;
            incr during;
            Histogram.record stalls ms;
            Thread.delay 0.0002
          done)
        ()
    in
    Thread.delay 0.01;
    (* Several checkpoints so the writer reliably overlaps them. *)
    let (), ckpt_ms =
      time_ms (fun () ->
          for _ = 1 to 5 do
            if concurrent then MapDb.checkpoint_concurrent db
            else MapDb.checkpoint db
          done)
    in
    let ckpt_ms = ckpt_ms /. 5.0 in
    stop := true;
    Thread.join writer;
    let lsn = (MapDb.stats db).Smalldb.lsn in
    MapDb.close db;
    (* Recovery still sees everything. *)
    let db2 = MapDb.open_exn fs in
    assert ((MapDb.stats db2).Smalldb.lsn = lsn);
    MapDb.close db2;
    [
      (if concurrent then "fuzzy (checkpoint_concurrent)" else "blocking (the paper)");
      fmt_ms ckpt_ms;
      string_of_int !during;
      fmt_ms (Histogram.max stalls);
      fmt_ms (Histogram.percentile stalls 99.);
    ]
  in
  Tablefmt.print
    ~header:
      [ "checkpoint"; "duration"; "updates during run"; "max update stall"; "p99 stall" ]
    [ run false; run true ];
  note
    "the fuzzy checkpoint pickles with no lock held; updates stall only for the      brief log hand-over (and on 1987 hardware: the full pickle minute vs a blink)";
  paper
    "S7 limitation: the time required for making a checkpoint, when updates are \
     excluded -- this ablation removes that exclusion for immutable-state apps"

(* ------------------------------------------------------------------ *)
(* E16: commit groups under concurrent updaters                       *)

module Fault = Sdb_storage.Fault_fs

(* Machine-readable results, written by [--json FILE] so CI can keep a
   throughput baseline artifact.  Each entry is a rendered JSON object. *)
let json_rows : string list ref = ref []
let json_add row = json_rows := row :: !json_rows

let write_json file =
  write_json_rows file (List.rev !json_rows);
  Printf.printf "\njson results written to %s\n" file

(* The host an E16 row was measured on: core count, OCaml version,
   source revision and run mode travel with every row. *)
let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

let e16 ~quick () =
  section "e16"
    "commit groups: concurrent updaters share one log write and one fsync";
  (* A simulated 1 ms fsync stands in for a real disk's cache flush;
     reads and writes stay fast, so the run isolates what batching the
     commit point buys.  Every update goes through the one group
     coordinator: one updater pays one fsync per update, N concurrent
     updaters ride shared fsyncs.  Each thread count runs [reps] times,
     the repetitions interleaved across thread counts so host drift
     spreads over every row; rows report the median and quartiles. *)
  let total = if quick then 192 else 960 in
  let reps = if quick then 3 else 5 in
  let value = String.make 64 'v' in
  let run ~threads =
    let store = Mem.create_store ~seed:(1600 + threads) () in
    let ctl, ffs = Fault.wrap (Mem.fs store) in
    Fault.set_latency ctl ~op:`Sync 0.001;
    let db = CrashDb.open_exn ffs in
    Metrics.reset ();
    let per_thread = total / threads in
    let (), ms =
      time_ms (fun () ->
          let ths =
            List.init threads (fun tid ->
                Thread.create
                  (fun () ->
                    for i = 0 to per_thread - 1 do
                      CrashDb.update db
                        (CrashApp.Set (Printf.sprintf "t%d-%05d" tid i, value))
                    done)
                  ())
          in
          List.iter Thread.join ths)
    in
    let syncs = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total") in
    let updates = Metrics.counter_value (Metrics.counter "sdb_updates_total") in
    CrashDb.close db;
    let n = threads * per_thread in
    let rate = float_of_int n /. (ms /. 1000.) in
    let spu = float_of_int syncs /. float_of_int (max 1 updates) in
    (rate, spu)
  in
  let thread_counts = [ 1; 2; 4; 8 ] in
  let samples =
    List.map (fun t -> (t, (Histogram.create (), Histogram.create ()))) thread_counts
  in
  for _ = 1 to reps do
    List.iter
      (fun (threads, (rates, spus)) ->
        let rate, spu = run ~threads in
        Histogram.record rates rate;
        Histogram.record spus spu)
      samples
  done;
  let q h p = Histogram.percentile h p in
  let base = q (fst (List.assoc 1 samples)) 50. in
  let host =
    Printf.sprintf
      "\"cores\": %d, \"ocaml\": %S, \"git_rev\": %S, \"mode\": %S"
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (git_rev ())
      (if quick then "quick" else "full")
  in
  let rows =
    List.map
      (fun (threads, (rates, spus)) ->
        let med = q rates 50. in
        json_add
          (Printf.sprintf
             "{\"experiment\": \"e16\", \"threads\": %d, \"reps\": %d, \
              \"updates_per_s\": %.1f, \"updates_per_s_p25\": %.1f, \
              \"updates_per_s_p75\": %.1f, \"speedup_vs_1\": %.3f, \
              \"fsyncs_per_update\": %.4f, \"fsyncs_per_update_max\": %.4f, %s}"
             threads reps med (q rates 25.) (q rates 75.) (med /. base)
             (q spus 50.) (Histogram.max spus) host);
        [
          string_of_int threads;
          Printf.sprintf "%.0f /s" med;
          Printf.sprintf "%.0f-%.0f" (q rates 25.) (q rates 75.);
          Printf.sprintf "%.2fx" (med /. base);
          Printf.sprintf "%.3f" (q spus 50.);
        ])
      samples
  in
  Tablefmt.print
    ~header:
      [ "threads"; "updates (median)"; "quartiles"; "vs 1 thread"; "fsyncs/update" ]
    rows;
  note "%d repetitions per row, interleaved; %d updates per run" reps total;
  note
    "concurrent updaters amortize the 1 ms commit fsync: fsyncs/update is \
     exactly 1 for one updater and falls toward 1/N with N";
  paper
    "the only faster schemes record multiple commit records in a single log \
     entry -- this is that scheme, applied across concurrent client threads"

(* ------------------------------------------------------------------ *)
(* E17: concurrency-sanitizer overhead                                  *)

let e17 ~quick () =
  section "e17" "concurrency sanitizer: overhead on and off";
  (* The discipline checks must be free when disabled (one atomic load
     and branch per lock event) and cheap enough to leave on in debug
     runs.  Same mixed workload, three passes: baseline before any
     toggle, explicitly disabled, enabled. *)
  let total = if quick then 2_000 else 10_000 in
  let threads = 4 in
  let was_enabled = Sdb_check.enabled () in
  let run () =
    let store = Mem.create_store ~seed:1700 () in
    let db = CrashDb.open_exn (Mem.fs store) in
    let per_thread = total / threads in
    let (), ms =
      time_ms (fun () ->
          let ths =
            List.init threads (fun tid ->
                Thread.create
                  (fun () ->
                    for i = 0 to per_thread - 1 do
                      CrashDb.update db
                        (CrashApp.Set (Printf.sprintf "t%d-%05d" tid i, "v"));
                      if i land 3 = 0 then
                        ignore (CrashDb.query db Hashtbl.length)
                    done)
                  ())
          in
          List.iter Thread.join ths)
    in
    CrashDb.close db;
    float_of_int (threads * per_thread) /. (ms /. 1000.)
  in
  let passes =
    [
      ("baseline", None); ("disabled", Some false); ("enabled", Some true);
    ]
  in
  let results =
    List.map
      (fun (label, toggle) ->
        (match toggle with
        | Some b -> Sdb_check.set_enabled b
        | None -> ());
        (label, run ()))
      passes
  in
  Sdb_check.set_enabled was_enabled;
  let baseline = List.assoc "baseline" results in
  let s = Sdb_check.stats () in
  let rows =
    List.map
      (fun (label, rate) ->
        json_add
          (Printf.sprintf
             "{\"experiment\": \"e17\", \"sanitizer\": \"%s\", \
              \"updates_per_s\": %.1f, \"overhead_pct\": %.2f}"
             label rate
             ((baseline /. rate -. 1.0) *. 100.0));
        [
          label;
          Printf.sprintf "%.0f /s" rate;
          Printf.sprintf "%+.1f%%" ((baseline /. rate -. 1.0) *. 100.0);
        ])
      results
  in
  Tablefmt.print ~header:[ "sanitizer"; "updates"; "overhead" ] rows;
  Printf.printf "  sanitizer totals: %d checks, %d violations, max depth %d\n"
    s.Sdb_check.checks s.Sdb_check.violations s.Sdb_check.max_lock_depth;
  note
    "disabled, every check is one atomic load and branch -- run-to-run noise   dwarfs it; enabled, per-event registry updates cost a few percent";
  paper
    "not in the paper -- tooling that guards the three-mode lock discipline \
     of section 4 while the suite and chaos sweeps run"

(* ------------------------------------------------------------------ *)
(* E18: open-loop load harness over the real RPC path                  *)

module Loadgen = Sdb_loadgen.Loadgen
module Slo = Sdb_obs.Slo

(* E18 always writes its own artifact (CI uploads it), independent of
   the harness-wide [--json] flag. *)
let e18_json_file = "BENCH_E18.json"

let e18 ~quick () =
  section "e18"
    "open-loop load: throughput knee and tail latency over the RPC socket";
  (* The full client-visible path: N loadgen threads, each with its own
     Unix-socket connection, against a name server with a
     fault-injectable filesystem underneath.  Open-loop arrivals
     mean a stalled server keeps accruing intended requests, so the
     tail reflects queueing delay, not just service time (no
     coordinated omission). *)
  let entries = 1000 in
  let store = Mem.create_store ~seed:1800 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  let ns = Ns.open_exn ffs in
  let rng = Rng.create ~seed:1801 in
  let batch = ref [] in
  for i = 0 to entries - 1 do
    batch := Ns.Set_value (entry_path i, Some (Rng.string rng ~len:32)) :: !batch
  done;
  Ns.Db.update_batch (Ns.db ns) !batch;
  Ns.checkpoint ns;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-e18-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let listener = Rpc.Socket.listen ~path:sock (Proto.serve ns) in
  let cfg =
    {
      Loadgen.default with
      Loadgen.threads = 4;
      keys = entries;
      duration_s = (if quick then 1.0 else 2.0);
      seed = 1802;
    }
  in
  let clients =
    Array.init cfg.Loadgen.threads (fun _ ->
        Proto.Client.create (Rpc.Socket.connect ~path:sock))
  in
  let exec ~thread op =
    let c = clients.(thread) in
    match op with
    | Loadgen.Read k -> ignore (Proto.Client.lookup c (entry_path k))
    | Loadgen.Write (k, v) -> Proto.Client.set_value c (entry_path k) (Some v)
  in
  let rows = ref [] in
  let json = ref [] in
  let ms v = v *. 1000.0 in
  let record ~scenario rate (r : Loadgen.result) =
    let p q = ms (Histogram.percentile r.Loadgen.latency q) in
    json :=
      Printf.sprintf
        "{\"experiment\": \"e18\", \"scenario\": \"%s\", \
         \"offered_rate\": %.0f, \"offered\": %d, \"completed\": %d, \
         \"errors\": %d, \"achieved_rate\": %.1f, \"p50_ms\": %.3f, \
         \"p99_ms\": %.3f, \"p999_ms\": %.3f, \"max_lag_ms\": %.3f}"
        scenario rate r.Loadgen.offered r.Loadgen.completed r.Loadgen.errors
        r.Loadgen.achieved_rate (p 50.0) (p 99.0) (p 99.9)
        (ms r.Loadgen.max_lag_s)
      :: !json;
    rows :=
      [
        scenario;
        Printf.sprintf "%.0f /s" rate;
        Printf.sprintf "%.0f /s" r.Loadgen.achieved_rate;
        string_of_int r.Loadgen.errors;
        fmt_ms (p 50.0);
        fmt_ms (p 99.0);
        fmt_ms (p 99.9);
      ]
      :: !rows
  in
  (* Scenario 1: happy-path rate ramp, looking for the knee. *)
  let rates =
    if quick then [ 200.0; 500.0; 1000.0 ]
    else [ 500.0; 1000.0; 2000.0; 4000.0 ]
  in
  let happy =
    Loadgen.sweep cfg ~rates ~on_result:(record ~scenario:"happy") ~exec
  in
  let knee = Loadgen.knee happy in
  (* Scenario 2: the same ramp's low rates with a 5 ms fsync spike
     injected -- every commit group now pays a visible flush, and the
     tail shows whether batching keeps the knee from collapsing. *)
  Fault.set_latency ctl ~op:`Sync 0.005;
  let spike_rates = if quick then [ 200.0; 500.0 ] else [ 500.0; 1000.0 ] in
  let _ =
    Loadgen.sweep cfg ~rates:spike_rates
      ~on_result:(record ~scenario:"fsync-spike") ~exec
  in
  Fault.set_latency ctl ~op:`Sync 0.0;
  (* Scenario 3: an online scrub fired halfway through the run. *)
  let aux = Proto.Client.create (Rpc.Socket.connect ~path:sock) in
  let scrub_rate = List.hd (List.rev spike_rates) in
  let scrubber =
    Thread.create
      (fun () ->
        Unix.sleepf (cfg.Loadgen.duration_s /. 2.0);
        ignore (Proto.Client.scrub aux ~repair:false))
      ()
  in
  record ~scenario:"scrub"
    scrub_rate
    (Loadgen.run { cfg with Loadgen.rate = scrub_rate } ~exec);
  Thread.join scrubber;
  (* Scenario 4: a replica catching up -- snapshot then updates_since
     polling -- competes with foreground load for the server. *)
  let stop = Atomic.make false in
  let catcher =
    Thread.create
      (fun () ->
        let _tree, lsn = Proto.Client.snapshot aux in
        let at = ref lsn in
        while not (Atomic.get stop) do
          (match Proto.Client.updates_since aux !at with
          | Some ((_ :: _) as us) -> at := fst (List.hd (List.rev us))
          | Some [] | None -> ());
          Unix.sleepf 0.01
        done)
      ()
  in
  record ~scenario:"catchup"
    scrub_rate
    (Loadgen.run { cfg with Loadgen.rate = scrub_rate } ~exec);
  Atomic.set stop true;
  Thread.join catcher;
  (* SLO check at a sustainable mid-ramp rate: a generous p99 <= 75 ms
     objective with a 2% budget, fed from the observe hook like a
     production tracker would be.  CI asserts this stays green, so the
     objective leaves headroom for scheduler jitter on shared runners
     (open-loop accounting charges a late client wakeup as latency
     too); the run is doubled in length so one hiccup cannot dominate
     the sample count. *)
  let slo =
    Slo.create ~window_s:60.0 ~name:"bench.e18" ~objective_ms:75.0 ~budget:0.02 ()
  in
  let observe ~latency_s ~ok =
    if ok then Slo.record slo latency_s else Slo.record_failure slo
  in
  let slo_rate = List.nth rates 1 in
  let slo_run =
    Loadgen.run ~observe
      { cfg with Loadgen.rate = slo_rate;
                 duration_s = 2.0 *. cfg.Loadgen.duration_s }
      ~exec
  in
  record ~scenario:"slo-check" slo_rate slo_run;
  let rep = Slo.report slo in
  json :=
    Printf.sprintf
      "{\"experiment\": \"e18\", \"scenario\": \"summary\", \
       \"knee_ops_per_s\": %s, \"slo_name\": \"%s\", \
       \"slo_objective_ms\": %.1f, \"slo_budget\": %.3f, \
       \"slo_bad_fraction\": %.5f, \"slo_burn\": %.3f, \"slo_pass\": %b}"
      (match knee with Some k -> Printf.sprintf "%.0f" k | None -> "null")
      rep.Slo.r_name (Slo.objective_ms slo) rep.Slo.r_budget
      rep.Slo.r_bad_fraction rep.Slo.r_burn rep.Slo.r_pass
    :: !json;
  (* Scenario 5: the lock-free read path under the mix it exists for.
     A second server configured with [read_path = `Epoch] serves the
     read-mostly (99/1) preset over its own socket, with the same p99
     objective tracked under its own SLO name — CI asserts both gates,
     so a regression in the epoch route's client-visible tail fails
     the build exactly like the locked one. *)
  let estore = Mem.create_store ~seed:1803 () in
  let econfig = { Smalldb.default_config with read_path = `Epoch } in
  let ens = Ns.open_exn ~config:econfig (Mem.fs estore) in
  let erng = Rng.create ~seed:1804 in
  let ebatch = ref [] in
  for i = 0 to entries - 1 do
    ebatch :=
      Ns.Set_value (entry_path i, Some (Rng.string erng ~len:32)) :: !ebatch
  done;
  Ns.Db.update_batch (Ns.db ens) !ebatch;
  Ns.checkpoint ens;
  let esock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-e18e-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists esock then Sys.remove esock;
  let elistener = Rpc.Socket.listen ~path:esock (Proto.serve ens) in
  let ecfg =
    {
      Loadgen.read_mostly with
      Loadgen.threads = cfg.Loadgen.threads;
      keys = entries;
      duration_s = 2.0 *. cfg.Loadgen.duration_s;
      seed = 1805;
    }
  in
  let eclients =
    Array.init ecfg.Loadgen.threads (fun _ ->
        Proto.Client.create (Rpc.Socket.connect ~path:esock))
  in
  let eexec ~thread op =
    let c = eclients.(thread) in
    match op with
    | Loadgen.Read k -> ignore (Proto.Client.lookup c (entry_path k))
    | Loadgen.Write (k, v) -> Proto.Client.set_value c (entry_path k) (Some v)
  in
  let eslo =
    Slo.create ~window_s:60.0 ~name:"bench.e18.epoch" ~objective_ms:75.0
      ~budget:0.02 ()
  in
  let eobserve ~latency_s ~ok =
    if ok then Slo.record eslo latency_s else Slo.record_failure eslo
  in
  record ~scenario:"epoch-read-mostly" slo_rate
    (Loadgen.run ~observe:eobserve { ecfg with Loadgen.rate = slo_rate }
       ~exec:eexec);
  let erep = Slo.report eslo in
  json :=
    Printf.sprintf
      "{\"experiment\": \"e18\", \"scenario\": \"epoch-summary\", \
       \"read_path\": \"epoch\", \"read_fraction\": %.2f, \
       \"slo_name\": \"%s\", \"slo_objective_ms\": %.1f, \
       \"slo_budget\": %.3f, \"slo_bad_fraction\": %.5f, \
       \"slo_burn\": %.3f, \"slo_pass\": %b}"
      ecfg.Loadgen.read_fraction erep.Slo.r_name (Slo.objective_ms eslo)
      erep.Slo.r_budget erep.Slo.r_bad_fraction erep.Slo.r_burn
      erep.Slo.r_pass
    :: !json;
  Array.iter Proto.Client.close eclients;
  Rpc.Socket.shutdown elistener;
  Ns.close ens;
  if Sys.file_exists esock then Sys.remove esock;
  Array.iter Proto.Client.close clients;
  Proto.Client.close aux;
  Rpc.Socket.shutdown listener;
  Ns.close ns;
  if Sys.file_exists sock then Sys.remove sock;
  Tablefmt.print
    ~header:[ "scenario"; "offered"; "achieved"; "errors"; "p50"; "p99"; "p999" ]
    (List.rev !rows);
  List.iter json_add (List.rev !json);
  write_json_rows e18_json_file (List.rev !json);
  note "knee: %s; SLO p99<=%.0fms at %.0f/s: %s (bad %.3f%%, burn %.2f)"
    (match knee with
    | Some k -> Printf.sprintf "%.0f ops/s sustained" k
    | None -> "not reached (no rate sustained)")
    (Slo.objective_ms slo) slo_rate
    (if rep.Slo.r_pass then "PASS" else "FAIL")
    (rep.Slo.r_bad_fraction *. 100.0) rep.Slo.r_burn;
  note "epoch route (99/1 mix) SLO at %.0f/s: %s (bad %.3f%%, burn %.2f)"
    slo_rate
    (if erep.Slo.r_pass then "PASS" else "FAIL")
    (erep.Slo.r_bad_fraction *. 100.0) erep.Slo.r_burn;
  Printf.printf "  artifact: %s\n" e18_json_file;
  paper
    "the paper reports service times for a lightly loaded server; an \
     open-loop ramp adds the missing half -- where the knee sits and what \
     the tail does when fsync stalls, scrubs, or replica catch-up compete"

(* ------------------------------------------------------------------ *)
(* E19: availability and replica staleness through a network partition *)

module Fault_net = Sdb_rpc.Fault_net
module Backoff = Sdb_rpc.Backoff
module Detector = Sdb_replica.Detector
module Mono = Sdb_util.Mono

let e19_json_file = "BENCH_E19.json"

let e19 ~quick () =
  section "e19"
    "partition -> heal -> catch-up: availability and replica staleness";
  (* Replica A takes a steady update load throughout; its peer B sits
     behind a fault_net-wrapped Unix-socket client.  A full partition
     opens mid-run and heals after [part_dur]; the health monitor (no
     manual anti_entropy anywhere) must notice, back off, and drain the
     backlog after the heal.  We record the commit-latency tail per
     phase (availability: commits must never block on the network), the
     replica staleness curve sampled at 50 ms, and the detector's
     suspect/dead/converged timestamps. *)
  let part_dur = if quick then 2.0 else 10.0 in
  let store_a = Mem.create_store ~seed:1900 () in
  let ns_a = Ns.open_exn (Mem.fs store_a) in
  let replica = Replica.create ~id:"a" ns_a in
  let store_b = Mem.create_store ~seed:1901 () in
  let ns_b = Ns.open_exn (Mem.fs store_b) in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-e19-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let listener = Rpc.Socket.listen ~path:sock (Proto.serve ns_b) in
  let ctl = Fault_net.create ~seed:1902 () in
  let fresh () = Fault_net.wrap ctl ~peer:"b" (Rpc.Socket.connect ~path:sock) in
  (* Two attempts only: more would let RPC-level retries mask a dead
     peer from the failure detector for several heartbeat intervals. *)
  let retry = { Rpc.default_retry with Rpc.max_attempts = 2 } in
  let client =
    Proto.Client.create ~deadline_s:0.25 ~retry
      ~retry_budget:(Backoff.Budget.create ~rate_per_s:100.0 ())
      ~reconnect:fresh (fresh ())
  in
  Replica.add_peer replica ~id:"b" client;
  let health =
    {
      Replica.default_health_config with
      detector =
        {
          Detector.heartbeat_interval_s = 0.1;
          suspect_after_s = 0.3;
          dead_after_s = 1.0;
        };
    }
  in
  Replica.start_health ~config:health replica;
  let t0 = Mono.now_s () in
  let now () = Mono.now_s () -. t0 in
  (* Phase clock, shared with the writer and sampler threads. *)
  let phase = Atomic.make `Warmup in
  let stop = Atomic.make false in
  let t_partition = ref nan and t_heal = ref nan in
  let h_warmup = Histogram.create ()
  and h_partition = Histogram.create ()
  and h_healed = Histogram.create () in
  let writer =
    Thread.create
      (fun () ->
        let rng = Rng.create ~seed:1903 in
        let i = ref 0 in
        while not (Atomic.get stop) do
          let h =
            match Atomic.get phase with
            | `Warmup -> h_warmup
            | `Partition -> h_partition
            | `Healed -> h_healed
          in
          let t_start = Mono.now_s () in
          Ns.set_value ns_a
            (entry_path (!i mod 500))
            (Some (Rng.string rng ~len:64));
          Histogram.record h (Mono.now_s () -. t_start);
          incr i;
          Unix.sleepf 0.005
        done)
      ()
  in
  (* Staleness sampler: both stores are in-process, so the probe never
     touches the faulty network. *)
  let samples = ref [] in
  let t_suspect = ref nan and t_dead = ref nan and t_converged = ref nan in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let t = now () in
          let staleness = Ns.ping ns_a - Ns.ping ns_b in
          let state =
            match Replica.peers replica with
            | [ x ] -> x.Replica.health
            | _ -> Detector.Alive
          in
          (* Timestamps are first-observed at the 50 ms sampling grain;
             the detector can cross Suspect between two samples (it
             never skips it — probe failure demotes to Suspect, only a
             later tick reaches Dead), so Dead also bounds Suspect. *)
          (match state with
          | Detector.Suspect ->
            if Float.is_nan !t_suspect then t_suspect := t
          | Detector.Dead ->
            if Float.is_nan !t_suspect then t_suspect := t;
            if Float.is_nan !t_dead then t_dead := t
          | Detector.Alive -> ());
          if
            Float.is_nan !t_converged
            && not (Float.is_nan !t_heal)
            && staleness = 0
            && String.equal (Replica.digest ns_a) (Replica.digest ns_b)
          then t_converged := t;
          samples := (t, staleness, state) :: !samples;
          Unix.sleepf 0.05
        done)
      ()
  in
  Unix.sleepf 1.0;
  t_partition := now ();
  Fault_net.partition ctl "b";
  Atomic.set phase `Partition;
  Unix.sleepf part_dur;
  t_heal := now ();
  Fault_net.heal ctl "b";
  Atomic.set phase `Healed;
  (* Convergence is the monitor's job now; give it a bounded wait. *)
  let deadline = Mono.now_s () +. 30.0 in
  while Float.is_nan !t_converged && Mono.now_s () < deadline do
    Unix.sleepf 0.05
  done;
  Unix.sleepf 0.2;
  Atomic.set stop true;
  Thread.join writer;
  Thread.join sampler;
  let max_staleness =
    List.fold_left (fun acc (_, s, _) -> max acc s) 0 !samples
  in
  let ms v = v *. 1000.0 in
  let rows =
    List.map
      (fun (name, h) ->
        [
          name;
          string_of_int (Histogram.count h);
          fmt_ms (ms (Histogram.percentile h 50.0));
          fmt_ms (ms (Histogram.percentile h 99.0));
          fmt_ms (ms (Histogram.max h));
        ])
      [ ("warmup", h_warmup); ("partition", h_partition); ("healed", h_healed) ]
  in
  Tablefmt.print
    ~header:[ "phase"; "commits"; "p50"; "p99"; "max" ]
    rows;
  let fnum v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let json = ref [] in
  json :=
    Printf.sprintf
      "{\"experiment\": \"e19\", \"scenario\": \"summary\", \
       \"partition_s\": %s, \"heal_s\": %s, \"suspect_s\": %s, \
       \"dead_s\": %s, \"converged_s\": %s, \"catchup_s\": %s, \
       \"max_staleness\": %d, \"partition_commits\": %d, \
       \"partition_p99_ms\": %.3f, \"partition_max_ms\": %.3f}"
      (fnum !t_partition) (fnum !t_heal) (fnum !t_suspect) (fnum !t_dead)
      (fnum !t_converged)
      (fnum (!t_converged -. !t_heal))
      max_staleness
      (Histogram.count h_partition)
      (ms (Histogram.percentile h_partition 99.0))
      (ms (Histogram.max h_partition))
    :: !json;
  List.iter
    (fun (t, staleness, state) ->
      json :=
        Printf.sprintf
          "{\"experiment\": \"e19\", \"scenario\": \"staleness\", \
           \"t_s\": %.3f, \"staleness\": %d, \"peer\": \"%s\"}"
          t staleness
          (Detector.state_to_string state)
        :: !json)
      (List.rev !samples);
  Replica.shutdown replica;
  Rpc.Socket.shutdown listener;
  Ns.close ns_a;
  Ns.close ns_b;
  if Sys.file_exists sock then Sys.remove sock;
  List.iter json_add (List.rev !json);
  write_json_rows e19_json_file (List.rev !json);
  note
    "partition at %ss, suspect %ss, dead %ss, healed %ss, converged %ss \
     (catch-up %ss); max staleness %d updates; partition-phase commit \
     p99 %s"
    (fnum !t_partition) (fnum !t_suspect) (fnum !t_dead) (fnum !t_heal)
    (fnum !t_converged)
    (fnum (!t_converged -. !t_heal))
    max_staleness
    (fmt_ms (ms (Histogram.percentile h_partition 99.0)));
  Printf.printf "  artifact: %s\n" e19_json_file;
  paper
    "Birrell et al. replicate by whole-database transfer after failures; \
     this measures the modern restatement -- commits stay available \
     through a partition, a failure detector times out the peer, and \
     automatic anti-entropy converges the replicas after the heal"

(* ------------------------------------------------------------------ *)
(* E20: lock-free read path — query scaling across domains             *)

let e20_json_file = "BENCH_E20.json"

let e20 ~quick () =
  section "e20"
    "epoch read path: query throughput vs domains, writer streaming commits";
  (* Readers run in separate domains (real parallelism where the host
     has the cores); a writer thread on the main domain streams group
     commits throughout.  On the Shared-lock route every query takes
     the engine lock's mutex twice and parks behind upgrade drains; on
     the epoch route a query is one fetch-and-add on a padded
     per-domain slot, a pointer load, and the matching decrement —
     readers never contend with the writer or each other.  [cores] is
     recorded in the artifact because the scaling claim is only
     observable where the cores exist: on a single-core host all
     domains timeshare and both routes flatline. *)
  let entries = 1000 in
  let duration_s = if quick then 0.3 else 1.0 in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  let run ~read_path ~domains =
    let config = { Smalldb.default_config with read_path } in
    let _store, _fs, ns = build_ns ~config ~entries ~seed:2000 () in
    let lsn0 = (Ns.stats ns).Smalldb.lsn in
    let stop = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          let rng = Rng.create ~seed:2001 in
          let i = ref 0 in
          while not (Atomic.get stop) do
            Ns.set_value ns
              (entry_path (!i mod entries))
              (Some (Rng.string rng ~len:32));
            incr i;
            (* ~1k commits/s: a steady stream, not a saturating one —
               the measured quantity is query scaling under writes. *)
            Unix.sleepf 0.001
          done)
        ()
    in
    let readers =
      List.init domains (fun d ->
          Domain.spawn (fun () ->
              let rng = Rng.create ~seed:(2002 + d) in
              let n = ref 0 in
              while not (Atomic.get stop) do
                ignore (Ns.lookup ns (random_path rng entries));
                incr n
              done;
              !n))
    in
    Unix.sleepf duration_s;
    Atomic.set stop true;
    let queries = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
    Thread.join writer;
    let updates = (Ns.stats ns).Smalldb.lsn - lsn0 in
    Ns.close ns;
    (float_of_int queries /. duration_s, float_of_int updates /. duration_s)
  in
  let routes = [ (`Locked, "locked"); (`Epoch, "epoch") ] in
  let results =
    List.concat_map
      (fun (read_path, label) ->
        List.map
          (fun domains ->
            let qps, ups = run ~read_path ~domains in
            (label, domains, qps, ups))
          domain_counts)
      routes
  in
  let base label =
    match
      List.find_opt (fun (l, d, _, _) -> l = label && d = 1) results
    with
    | Some (_, _, q, _) -> q
    | None -> nan
  in
  let json = ref [] in
  let rows =
    List.map
      (fun (label, domains, qps, ups) ->
        let speedup = qps /. base label in
        json :=
          Printf.sprintf
            "{\"experiment\": \"e20\", \"read_path\": \"%s\", \
             \"domains\": %d, \"cores\": %d, \"queries_per_s\": %.1f, \
             \"updates_per_s\": %.1f, \"speedup_vs_1\": %.3f}"
            label domains cores qps ups speedup
          :: !json;
        [
          label;
          string_of_int domains;
          Printf.sprintf "%.0f /s" qps;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f /s" ups;
        ])
      results
  in
  Tablefmt.print
    ~header:[ "read path"; "domains"; "queries"; "vs 1 domain"; "commits" ]
    rows;
  List.iter json_add (List.rev !json);
  write_json_rows e20_json_file (List.rev !json);
  note
    "host has %d core%s -- query scaling with domains is only visible   where the cores exist; the artifact records cores so CI baselines   judge accordingly"
    cores
    (if cores = 1 then "" else "s");
  Printf.printf "  artifact: %s\n" e20_json_file;
  paper
    "the paper's enquiries are pure virtual-memory reads under one lock; \
     publishing each committed version through an epoch makes them \
     lock-free, so read throughput can scale with cores while updates \
     stream -- the property measured here"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment's core op   *)

let bechamel_suite ~quick () =
  section "micro" "bechamel micro-benchmarks (OLS time per run)";
  let open Bechamel in
  let entries = entries_for_bytes (64 * 1024) in
  let _store, _fs, ns = build_ns ~entries ~seed:131 () in
  let rng = Rng.create ~seed:132 in
  let counter = ref 0 in
  let next_path () =
    incr counter;
    entry_path (!counter mod entries)
  in
  let kv_store = Mem.create_store ~seed:133 () in
  let kv =
    match B.Smalldb_kv.open_with (Mem.fs kv_store) with
    | Ok d -> d
    | Error e -> failwith e
  in
  let adhoc_store = Mem.create_store ~seed:134 () in
  let adhoc =
    match B.Adhoc_db.open_ (Mem.fs adhoc_store) with Ok d -> d | Error e -> failwith e
  in
  let atomic_store = Mem.create_store ~seed:135 () in
  let atomic =
    match B.Atomic_db.open_ (Mem.fs atomic_store) with Ok d -> d | Error e -> failwith e
  in
  let text_store = Mem.create_store ~seed:136 () in
  let text =
    match B.Textfile_db.open_ (Mem.fs text_store) with Ok d -> d | Error e -> failwith e
  in
  let update_payload = Rng.string rng ~len:paper_value_len in
  let blob = P.to_string Data.codec_tree (fst (Ns.snapshot_with_lsn ns)) in
  let client_t, server_t = Rpc.Inproc.pair () in
  let echo = [ Rpc.Server.handler ~meth:"echo" P.string P.string Fun.id ] in
  let server = Thread.create (fun () -> Rpc.Server.serve ~handlers:echo server_t) () in
  let rpc_client = Rpc.Client.create client_t in
  let tests =
    [
      Test.make ~name:"e1.lookup" (Staged.stage (fun () -> Ns.lookup ns (next_path ())));
      Test.make ~name:"e2.update"
        (Staged.stage (fun () -> Ns.set_value ns (next_path ()) (Some update_payload)));
      Test.make ~name:"e2.pickle-update"
        (Staged.stage (fun () ->
             P.encode Ns.codec_update (Ns.Set_value (entry_path 1, Some update_payload))));
      (* Ablation: what the typed, tagged, fingerprinted pickle costs
         over the unsafe runtime marshaller. *)
      Test.make ~name:"e2.marshal-update-unsafe"
        (Staged.stage (fun () ->
             Marshal.to_string (entry_path 1, update_payload) []));
      Test.make ~name:"e3.pickle-db-64k"
        (Staged.stage (fun () ->
             ignore (P.encode Data.codec_tree (fst (Ns.snapshot_with_lsn ns)))));
      Test.make ~name:"e4.unpickle-db-64k"
        (Staged.stage (fun () -> ignore (P.of_string Data.codec_tree blob)));
      Test.make ~name:"e5.group-commit-10"
        (Staged.stage (fun () ->
             Ns.Db.update_batch (Ns.db ns)
               (List.init 10 (fun _ -> Ns.Set_value (next_path (), Some update_payload)))));
      Test.make ~name:"e6.rpc-echo"
        (Staged.stage (fun () ->
             ignore (Rpc.Client.call rpc_client ~meth:"echo" P.string P.string "ping")));
      Test.make ~name:"e7.textfile-set"
        (Staged.stage (fun () ->
             B.Textfile_db.set text (kv_key (!counter mod 100)) update_payload));
      Test.make ~name:"e7.adhoc-set"
        (Staged.stage (fun () ->
             B.Adhoc_db.set adhoc (kv_key (!counter mod 100)) update_payload));
      Test.make ~name:"e7.atomic-set"
        (Staged.stage (fun () ->
             B.Atomic_db.set atomic (kv_key (!counter mod 100)) update_payload));
      Test.make ~name:"e7.smalldb-set"
        (Staged.stage (fun () ->
             B.Smalldb_kv.set kv (kv_key (!counter mod 100)) update_payload));
    ]
  in
  let quota = if quick then 0.1 else 0.25 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"bench" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name res ->
      let ns_per_run =
        match Analyze.OLS.estimates res with Some (e :: _) -> e | _ -> nan
      in
      rows := (name, ns_per_run) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, ns_run) ->
           [ name; Printf.sprintf "%.0f ns" ns_run; fmt_ms (ns_run /. 1e6) ])
  in
  Tablefmt.print ~header:[ "benchmark"; "per run"; "" ] rows;
  Rpc.Client.close rpc_client;
  server_t.Rpc.Transport.close ();
  Thread.join server;
  B.Smalldb_kv.close kv;
  B.Adhoc_db.close adhoc;
  B.Atomic_db.close atomic;
  B.Textfile_db.close text

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18);
    ("e19", e19);
    ("e20", e20);
    ("micro", bechamel_suite);
  ]

let () =
  let quick = ref false in
  let only = ref [] in
  let metrics = ref false in
  let json_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--only" :: ids :: rest ->
      only := String.split_on_char ',' ids @ !only;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--sanitize" :: rest ->
      Sdb_check.set_enabled true;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: main.exe [--quick] [--metrics] [--sanitize] [--json FILE] \
         [--only e1,e2,...]\n\
         unknown: %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !only = [] then experiments
    else List.filter (fun (id, _) -> List.mem id !only) experiments
  in
  if selected = [] then begin
    Printf.eprintf "no such experiment; known: %s\n"
      (String.concat ", " (List.map fst experiments));
    exit 2
  end;
  Printf.printf
    "smalldb benchmark harness -- reproducing the evaluation of\n\
     \"A Simple and Efficient Implementation for Small Databases\" (SOSP 1987)\n";
  let (), total_ms =
    time_ms (fun () -> List.iter (fun (_, f) -> f ~quick:!quick ()) selected)
  in
  Printf.printf "\nall experiments completed in %s\n" (fmt_ms total_ms);
  (match !json_file with Some file -> write_json file | None -> ());
  if !metrics then begin
    print_endline "\n== metrics registry (whole run) ==";
    print_string (Metrics.render ())
  end
