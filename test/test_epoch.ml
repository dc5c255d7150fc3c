(* The lock-free read path end to end: the epoch publication layer on
   its own, the engine routing queries through it (a `Persistent state),
   and the snapshot semantics observable over RPC.  The interleaving
   space of the protocol itself is exhausted in test_schedcheck; what
   this suite adds is the real instantiation — Stdlib atomics, real
   threads, the real engine and wire protocol — plus the detector
   honesty check (unsafe reclamation is caught by the sanitizer). *)

module Epoch = Sdb_epoch.Epoch
module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Data = Sdb_nameserver.Ns_data
module Path = Sdb_nameserver.Name_path
module Proto = Sdb_rpc.Ns_protocol
module Rpc = Sdb_rpc.Rpc
module Metrics = Sdb_obs.Metrics

let check = Alcotest.check
let p s = match Path.of_string s with Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* The publication layer alone                                         *)

let test_publish_reclaims_without_readers () =
  let e = Epoch.create ~name:"t-epoch-drain" ~lsn:0 "v0" in
  for k = 1 to 50 do
    Epoch.publish e ~lsn:k (Printf.sprintf "v%d" k)
  done;
  (* No reader slot is registered, so every publish's inline sweep
     frees the version it displaced: live versions stay bounded. *)
  check Alcotest.int "nothing retired" 0 (Epoch.retired_versions e);
  check Alcotest.int "all reclaimed" 50 (Epoch.reclaimed_total e);
  check Alcotest.int "one advance per publish" 50 (Epoch.advance_total e);
  check Alcotest.int "no lag" 0 (Epoch.reclaim_lag e);
  check Alcotest.string "latest version" "v50" (Epoch.read e Fun.id);
  let v, lsn = Epoch.read_with_lsn e Fun.id in
  check Alcotest.string "payload" "v50" v;
  check Alcotest.int "paired lsn" 50 lsn

let test_pinned_reader_blocks_reclaim () =
  let e = Epoch.create ~name:"t-epoch-pin" ~lsn:0 0 in
  let observed =
    Epoch.read e (fun v0 ->
        (* Publishes landing while this reader is pinned: the slot
           registration must hold every displaced version live. *)
        for k = 1 to 3 do
          Epoch.publish e ~lsn:k k
        done;
        check Alcotest.int "retired pile held" 3 (Epoch.retired_versions e);
        check Alcotest.bool "lag visible" true (Epoch.reclaim_lag e > 0);
        v0)
  in
  check Alcotest.int "reader saw its pinned version" 0 observed;
  check Alcotest.int "slot empty after exit" 0 (Epoch.active_readers e);
  (* The reader is gone: one sweep frees the whole pile. *)
  check Alcotest.int "sweep frees all three" 3 (Epoch.reclaim e);
  check Alcotest.int "nothing retired" 0 (Epoch.retired_versions e);
  check Alcotest.int "reclaimed total" 3 (Epoch.reclaimed_total e)

let test_raising_reader_exits () =
  let e = Epoch.create ~name:"t-epoch-raise" ~lsn:0 "v0" in
  (match Epoch.read e (fun _ -> raise Exit) with
  | _ -> Alcotest.fail "reader should have raised"
  | exception Exit -> ());
  check Alcotest.int "slot released on raise" 0 (Epoch.active_readers e);
  (* And reclamation is not wedged: the next publish sweeps itself. *)
  Epoch.publish e ~lsn:1 "v1";
  check Alcotest.int "nothing retired" 0 (Epoch.retired_versions e)

(* Detector honesty: reclaiming without honouring the reader slots must
   be flagged by the sanitizer, on the reader that held the version. *)
let test_unsafe_reclaim_caught () =
  Sdb_check.reset ();
  Sdb_check.set_enabled true;
  Fun.protect ~finally:(fun () -> Sdb_check.set_enabled false) @@ fun () ->
  let e = Epoch.create ~name:"t-epoch-unsafe" ~lsn:0 "v0" in
  (match
     Epoch.read e (fun _ ->
         Epoch.publish e ~lsn:1 "v1";
         (* The seeded bug: frees the version this reader still holds. *)
         ignore (Epoch.unsafe_reclaim_all e : int))
   with
  | () -> Alcotest.fail "use-after-retire not detected"
  | exception Sdb_check.Violation v ->
    check Alcotest.string "rule" "epoch" v.Sdb_check.v_rule);
  check Alcotest.int "slot released despite violation" 0
    (Epoch.active_readers e)

(* ------------------------------------------------------------------ *)
(* The engine on the epoch route                                       *)

let epoch_ns ?(seed = 7) () =
  let store = Mem.create_store ~seed () in
  (store, Ns.open_exn (Mem.fs store))

(* A reader holding its snapshot across a concurrent committed update
   must keep seeing the pre-update version — and, unlike the Shared-lock
   route (where the updater's upgrade would drain this very reader,
   i.e. deadlock against it), the update commits while the reader is
   still inside its query. *)
let test_snapshot_across_update () =
  let _store, ns = epoch_ns () in
  Ns.set_value ns (p "/k") (Some "before");
  let entered = ref false and updated = ref false in
  let seen = ref None in
  let reader =
    Thread.create
      (fun () ->
        let v =
          Ns.Db.query (Ns.db ns) (fun root ->
              entered := true;
              while not !updated do
                Thread.yield ()
              done;
              (* The update has committed; this snapshot must not see it. *)
              match Data.pfind root (p "/k") with
              | Some n -> n.Data.pvalue
              | None -> None)
        in
        seen := Some v)
      ()
  in
  while not !entered do
    Thread.yield ()
  done;
  (* Commits without waiting for the pinned reader. *)
  Ns.set_value ns (p "/k") (Some "after");
  updated := true;
  Thread.join reader;
  check
    Alcotest.(option (option string))
    "pinned reader saw the pre-update version"
    (Some (Some "before"))
    !seen;
  check
    Alcotest.(option string)
    "a fresh query sees the update" (Some "after")
    (Ns.lookup ns (p "/k"));
  Ns.close ns

(* The epoch metrics are the observable face of reclamation: under
   churn with a pinned reader the retired pile (and lag) grows; once
   the reader drains, the next publish sweeps it back to zero. *)
let metric_value name =
  Metrics.render () |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.length line > 0 && line.[0] <> '#'
            && String.starts_with ~prefix:name line
         then
           String.rindex_opt line ' '
           |> Option.map (fun i ->
                  float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1)))
         else None)
  |> function
  | Some v -> v
  | None -> Alcotest.failf "metric %s not found in render" name

let test_bounded_versions_under_churn () =
  let _store, ns = epoch_ns ~seed:8 () in
  Ns.set_value ns (p "/seq") (Some "0");
  let entered = ref false and release = ref false in
  let reader =
    Thread.create
      (fun () ->
        Ns.Db.query (Ns.db ns) (fun _root ->
            entered := true;
            while not !release do
              Thread.yield ()
            done))
      ()
  in
  while not !entered do
    Thread.yield ()
  done;
  let churn = 20 in
  for i = 1 to churn do
    Ns.set_value ns (p "/seq") (Some (string_of_int i))
  done;
  let retired =
    metric_value "sdb_epoch_retired_versions{db=\"nameserver\"}"
  in
  check Alcotest.bool "retired pile grows while pinned" true (retired >= 1.0);
  check Alcotest.bool "pile bounded by churn" true
    (retired <= float_of_int churn);
  check Alcotest.bool "reclaim lag surfaced" true
    (metric_value "sdb_epoch_reclaim_lag{db=\"nameserver\"}" >= 1.0);
  check (Alcotest.float 0.0) "reader gauge" 1.0
    (metric_value "sdb_epoch_readers{db=\"nameserver\"}");
  release := true;
  Thread.join reader;
  (* The next publish's inline sweep frees the whole pile. *)
  Ns.set_value ns (p "/seq") (Some "done");
  check (Alcotest.float 0.0) "pile swept once the reader drained" 0.0
    (metric_value "sdb_epoch_retired_versions{db=\"nameserver\"}");
  check (Alcotest.float 0.0) "no lag" 0.0
    (metric_value "sdb_epoch_reclaim_lag{db=\"nameserver\"}");
  check Alcotest.bool "advances counted" true
    (metric_value "sdb_epoch_advance_total{db=\"nameserver\"}"
    >= float_of_int churn);
  Ns.close ns

(* A raising reader must not wedge the engine's epoch (the engine-level
   twin of [test_raising_reader_exits]). *)
let test_engine_raising_reader () =
  let _store, ns = epoch_ns ~seed:9 () in
  Ns.set_value ns (p "/x") (Some "1");
  (match Ns.Db.query (Ns.db ns) (fun _ -> raise Exit) with
  | _ -> Alcotest.fail "query should have raised"
  | exception Exit -> ());
  (* Updates still commit and reclaim behind them. *)
  Ns.set_value ns (p "/x") (Some "2");
  check
    Alcotest.(option string)
    "engine still serving" (Some "2")
    (Ns.lookup ns (p "/x"));
  check (Alcotest.float 0.0) "slot released" 0.0
    (metric_value "sdb_epoch_readers{db=\"nameserver\"}");
  Ns.close ns

(* ------------------------------------------------------------------ *)
(* Snapshot semantics over the wire                                    *)

(* Two RPC clients against one epoch-routed server: a writer streams
   sequenced values while a reader repeatedly takes [snapshot] (the
   engine's query_with_lsn through the epoch route).  The payload and
   the LSN must come from the same published version: value i is
   committed by exactly the update that moved the LSN to base + i. *)
let test_rpc_snapshot_consistency () =
  let _store, ns = epoch_ns ~seed:10 () in
  let serve_pair () =
    let client_t, server_t = Rpc.Inproc.pair () in
    let server = Thread.create (fun () -> Proto.serve ns server_t) () in
    (Proto.Client.create client_t, server_t, server)
  in
  let wc, wst, wsrv = serve_pair () in
  let rc, rst, rsrv = serve_pair () in
  Fun.protect
    ~finally:(fun () ->
      Proto.Client.close wc;
      Proto.Client.close rc;
      wst.Rpc.Transport.close ();
      rst.Rpc.Transport.close ();
      Thread.join wsrv;
      Thread.join rsrv;
      Ns.close ns)
    (fun () ->
      Proto.Client.set_value wc (p "/seq") (Some "0");
      let base = Proto.Client.lsn rc in
      let writes = 50 in
      let writer =
        Thread.create
          (fun () ->
            for i = 1 to writes do
              Proto.Client.set_value wc (p "/seq") (Some (string_of_int i))
            done)
          ()
      in
      let consistent = ref 0 in
      while Proto.Client.lsn rc < base + writes do
        let tree, lsn = Proto.Client.snapshot rc in
        let value =
          match Data.pfind (Data.pof_tree tree) (p "/seq") with
          | Some n -> n.Data.pvalue
          | None -> None
        in
        (match value with
        | Some v ->
          check Alcotest.int
            (Printf.sprintf "value %s pairs with lsn %d (base %d)" v lsn base)
            (lsn - base) (int_of_string v);
          incr consistent
        | None -> Alcotest.fail "/seq vanished mid-run")
      done;
      Thread.join writer;
      check Alcotest.bool "snapshots actually raced the writer" true
        (!consistent > 0);
      check
        Alcotest.(option string)
        "final value" (Some (string_of_int writes))
        (Proto.Client.lookup rc (p "/seq")))

let () =
  Helpers.run "epoch"
    [
      ( "layer",
        [
          Alcotest.test_case "publish reclaims with no readers" `Quick
            test_publish_reclaims_without_readers;
          Alcotest.test_case "pinned reader blocks reclaim" `Quick
            test_pinned_reader_blocks_reclaim;
          Alcotest.test_case "raising reader exits its epoch" `Quick
            test_raising_reader_exits;
          Alcotest.test_case "unsafe reclaim caught by sanitizer" `Quick
            test_unsafe_reclaim_caught;
        ] );
      ( "engine",
        [
          Alcotest.test_case "snapshot held across concurrent update" `Quick
            test_snapshot_across_update;
          Alcotest.test_case "bounded versions and metrics under churn" `Quick
            test_bounded_versions_under_churn;
          Alcotest.test_case "raising reader does not wedge the engine" `Quick
            test_engine_raising_reader;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "snapshot/lsn pairing under a racing writer"
            `Quick test_rpc_snapshot_consistency;
        ] );
    ]
