module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Store = Sdb_checkpoint.Checkpoint_store
module P = Sdb_pickle.Pickle
open Helpers

let check = Alcotest.check

let get db k = KVDb.query db (fun st -> Hashtbl.find_opt st k)
let set db k v = KVDb.update db (KV.Set (k, v))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let test_create_and_query () =
  let _, _, db = mem_db () in
  check Alcotest.(option string) "empty" None (get db "x");
  set db "x" "1";
  set db "y" "2";
  check Alcotest.(option string) "x" (Some "1") (get db "x");
  check Alcotest.(option string) "y" (Some "2") (get db "y");
  KVDb.update db (KV.Del "x");
  check Alcotest.(option string) "deleted" None (get db "x");
  let s = KVDb.stats db in
  check Alcotest.int "lsn" 3 s.Smalldb.lsn;
  check Alcotest.int "committed" 3 s.Smalldb.updates_committed;
  check Alcotest.int "generation" 0 s.Smalldb.generation;
  check Alcotest.int "log entries" 3 s.Smalldb.log_entries

let test_durability_across_reopen () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "all updates replayed" 10 (sequenced_prefix db2);
  let s = KVDb.stats db2 in
  check Alcotest.int "replayed" 10 s.Smalldb.recovery.Smalldb.replayed;
  check Alcotest.int "lsn continues" 10 s.Smalldb.lsn;
  (* LSNs keep increasing across restarts. *)
  KVDb.update db2 (sequenced_update 10);
  check Alcotest.int "lsn" 11 (KVDb.stats db2).Smalldb.lsn

let test_checkpoint_resets_log () =
  let _, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let s = KVDb.stats db in
  check Alcotest.int "generation bumped" 1 s.Smalldb.generation;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  check Alcotest.int "lsn preserved" 5 s.Smalldb.lsn;
  check Alcotest.int "checkpoints" 1 s.Smalldb.checkpoints_written;
  (* More updates after the checkpoint. *)
  for i = 5 to 7 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "checkpoint + replay" 8 (sequenced_prefix db2);
  check Alcotest.int "only log entries replayed" 3
    (KVDb.stats db2).Smalldb.recovery.Smalldb.replayed

let test_close_then_reopen_idempotent () =
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  KVDb.close db;
  (match get db "a" with
  | _ -> Alcotest.fail "expected Closed"
  | exception Smalldb.Closed -> ());
  let db2 = KVDb.open_exn fs in
  check Alcotest.(option string) "value" (Some "1") (get db2 "a")

let test_open_empty_fs_is_durable_immediately () =
  let store, fs, db = mem_db () in
  KVDb.close db;
  (* Even with zero updates, the store must recover to empty. *)
  Mem.crash store ~mode:Mem.Clean;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "empty" 0 (sequenced_prefix db2)

(* ------------------------------------------------------------------ *)
(* The three-step update                                                *)

let test_precondition_blocks_update () =
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  let r =
    KVDb.update_checked db
      ~precondition:(fun st ->
        if Hashtbl.mem st "absent" then Ok () else Error "missing key")
      (KV.Set ("x", "1"))
  in
  check (Alcotest.result Alcotest.unit Alcotest.string) "rejected" (Error "missing key") r;
  (* Nothing reached the disk and nothing changed in memory. *)
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no disk writes" 0 d.Fs.Counters.data_writes;
  check Alcotest.(option string) "memory untouched" None (get db "x");
  check Alcotest.int "lsn unchanged" 0 (KVDb.stats db).Smalldb.lsn

let test_precondition_passes () =
  let _, _, db = mem_db () in
  set db "x" "1";
  let r =
    KVDb.update_checked db
      ~precondition:(fun st ->
        if Hashtbl.mem st "x" then Ok () else Error "missing")
      (KV.Set ("x", "2"))
  in
  check (Alcotest.result Alcotest.unit Alcotest.string) "accepted" (Ok ()) r;
  check Alcotest.(option string) "applied" (Some "2") (get db "x")

let test_update_is_one_write_one_sync () =
  let _, fs, db = mem_db () in
  set db "warm" "up";
  let before = Fs.Counters.copy fs.Fs.counters in
  set db "x" "1";
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs;
  check Alcotest.int "no reads" 0 d.Fs.Counters.data_reads

let test_batch_single_sync () =
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  KVDb.update_batch db (List.init 5 sequenced_update);
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs;
  check Alcotest.int "all applied" 5 (sequenced_prefix db);
  check Alcotest.int "lsn" 5 (KVDb.stats db).Smalldb.lsn;
  KVDb.update_batch db [];
  check Alcotest.int "empty batch no-op" 5 (KVDb.stats db).Smalldb.lsn

let test_apply_failure_poisons () =
  let module Bomb = struct
    type state = int ref
    type update = Ok_up | Boom

    let name = "bomb"
    let codec_state = P.ref_cell P.int

    let codec_update =
      P.enum ~name:"bomb.update" [ ("ok", Ok_up); ("boom", Boom) ]

    let init () = ref 0

    let apply st = function
      | Ok_up ->
        incr st;
        st
      | Boom -> failwith "apply exploded"
  end in
  let module Db = Smalldb.Make (Bomb) in
  let store = Mem.create_store () in
  let db = Db.open_exn (Mem.fs store) in
  Db.update db Bomb.Ok_up;
  (match Db.update db Bomb.Boom with
  | _ -> Alcotest.fail "expected apply failure"
  | exception Failure _ -> ());
  (* The update was committed but not applied: memory may disagree
     with disk, so the instance must refuse further work. *)
  (match Db.update db Bomb.Ok_up with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Smalldb.Poisoned -> ());
  match Db.query db (fun st -> !st) with
  | _ -> Alcotest.fail "query should be poisoned too"
  | exception Smalldb.Poisoned -> ()

let test_raising_precondition_releases_lock () =
  (* A precondition that raises (rather than returning [Error]) must
     release the update lock: the engine stays usable and the next
     update does not deadlock on a leaked lock. *)
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> failwith "precondition exploded")
       (KV.Set ("x", "1"))
   with
  | _ -> Alcotest.fail "expected the precondition's exception"
  | exception Failure m -> check Alcotest.string "same exception" "precondition exploded" m);
  (* Nothing committed, nothing poisoned. *)
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no disk writes" 0 d.Fs.Counters.data_writes;
  check Alcotest.(option string) "memory untouched" None (get db "x");
  (* Both lock modes must still be acquirable. *)
  set db "x" "2";
  check Alcotest.(option string) "engine still usable" (Some "2") (get db "x");
  check Alcotest.int "lsn counts only the good update" 1 (KVDb.stats db).Smalldb.lsn

(* A KV app whose pickler detonates on a chosen key — for proving that
   an encoding failure releases the lock without poisoning (nothing
   reached the disk). *)
module Fragile = struct
  type state = (string, string) Hashtbl.t
  type update = string * string

  let name = "fragile-kv"
  let codec_state = P.hashtbl P.string P.string

  let codec_update =
    P.conv ~name:"fragile.update"
      (fun (k, v) -> if String.equal k "boom" then failwith "pickler exploded" else (k, v))
      Fun.id
      (P.pair P.string P.string)

  let init () = Hashtbl.create 16

  let apply st (k, v) =
    Hashtbl.replace st k v;
    st
end

module FragileDb = Smalldb.Make (Fragile)

let test_raising_pickler_releases_lock () =
  let store = Mem.create_store () in
  let db = FragileDb.open_exn (Mem.fs store) in
  FragileDb.update db ("a", "1");
  (match FragileDb.update db ("boom", "x") with
  | () -> Alcotest.fail "expected the pickler's exception"
  | exception Failure _ -> ());
  (* Unlike an append or apply failure, nothing was committed: the
     engine is NOT poisoned and keeps working. *)
  FragileDb.update db ("b", "2");
  check Alcotest.(option string) "still usable"
    (Some "2")
    (FragileDb.query db (fun st -> Hashtbl.find_opt st "b"));
  check Alcotest.int "only the good updates committed" 2
    (FragileDb.stats db).Smalldb.lsn

let test_raising_pickler_in_batch () =
  let store = Mem.create_store () in
  let db = FragileDb.open_exn (Mem.fs store) in
  (match FragileDb.update_batch db [ ("a", "1"); ("boom", "x"); ("c", "3") ] with
  | () -> Alcotest.fail "expected the pickler's exception"
  | exception Failure _ -> ());
  check Alcotest.int "nothing committed" 0 (FragileDb.stats db).Smalldb.lsn;
  FragileDb.update_batch db [ ("a", "1"); ("c", "3") ];
  check Alcotest.(option string) "still usable"
    (Some "3")
    (FragileDb.query db (fun st -> Hashtbl.find_opt st "c"))

let test_raising_subscriber_after_commit () =
  (* A subscriber that raises propagates to the updater — but only
     after the commit point, with no lock held: the update is durable,
     applied, and the engine keeps working. *)
  let _, _, db = mem_db () in
  let sub = KVDb.subscribe db (fun _lsn _u -> failwith "subscriber exploded") in
  (match set db "x" "1" with
  | () -> Alcotest.fail "expected the subscriber's exception"
  | exception Failure _ -> ());
  KVDb.unsubscribe db sub;
  check Alcotest.(option string) "update was applied" (Some "1") (get db "x");
  check Alcotest.int "and committed" 1 (KVDb.stats db).Smalldb.lsn;
  set db "y" "2";
  check Alcotest.(option string) "engine still usable" (Some "2") (get db "y")

(* ------------------------------------------------------------------ *)
(* Checkpoint policies                                                  *)

let test_policy_every_n () =
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 3 } in
  let _, _, db = mem_db ~config () in
  for i = 0 to 8 do
    KVDb.update db (sequenced_update i)
  done;
  let s = KVDb.stats db in
  check Alcotest.int "three checkpoints" 3 s.Smalldb.checkpoints_written;
  check Alcotest.int "generation" 3 s.Smalldb.generation;
  check Alcotest.int "log empty after auto-checkpoint" 0 s.Smalldb.log_entries

let test_policy_every_n_batch_crossing () =
  (* A batch that jumps over the policy's multiple must still trigger
     the checkpoint: the policy counts updates since the last
     checkpoint, not [committed mod n]. *)
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 5 } in
  let _, _, db = mem_db ~config () in
  KVDb.update_batch db (List.init 7 sequenced_update);
  let s = KVDb.stats db in
  check Alcotest.int "batch crossing the boundary checkpoints" 1
    s.Smalldb.checkpoints_written;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  (* The counter restarts from the checkpoint: five more singles fire
     exactly one more. *)
  for i = 7 to 11 do
    KVDb.update db (sequenced_update i)
  done;
  check Alcotest.int "counter reset at the checkpoint" 2
    (KVDb.stats db).Smalldb.checkpoints_written;
  check Alcotest.int "nothing lost" 12 (sequenced_prefix db)

let test_policy_every_n_concurrent_no_duplicates () =
  (* Racing updaters must not each write the checkpoint the policy asks
     for once: the due check and the checkpoint run inside the commit
     slot, so there is at most one checkpoint per [n] committed
     updates.  A slow fsync keeps the updaters overlapping. *)
  let n = 10 in
  let store = Mem.create_store ~seed:31 () in
  let ctl, ffs = Sdb_storage.Fault_fs.wrap (Mem.fs store) in
  Sdb_storage.Fault_fs.set_latency ctl ~op:`Sync 0.0002;
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates n } in
  let db = KVDb.open_exn ~config ffs in
  let threads = 4 and per_thread = 200 in
  List.init threads (fun tid ->
      Thread.create
        (fun () ->
          for i = 0 to per_thread - 1 do
            set db (Printf.sprintf "t%d-%03d" tid i) "v"
          done)
        ())
  |> List.iter Thread.join;
  let s = KVDb.stats db in
  check Alcotest.int "every update committed" (threads * per_thread)
    s.Smalldb.updates_committed;
  check Alcotest.bool
    (Printf.sprintf "%d checkpoints for %d updates (policy: at most %d)"
       s.Smalldb.checkpoints_written s.Smalldb.updates_committed
       (s.Smalldb.updates_committed / n))
    true
    (s.Smalldb.checkpoints_written <= s.Smalldb.updates_committed / n);
  KVDb.close db

let test_policy_log_bytes () =
  let config =
    { Smalldb.default_config with policy = Smalldb.Log_bytes_exceeds 200 }
  in
  let _, _, db = mem_db ~config () in
  for i = 0 to 19 do
    KVDb.update db (sequenced_update i)
  done;
  let s = KVDb.stats db in
  Alcotest.check Alcotest.bool "checkpointed at least once" true
    (s.Smalldb.checkpoints_written > 0);
  Alcotest.check Alcotest.bool "log stays bounded" true (s.Smalldb.log_bytes <= 400);
  check Alcotest.int "nothing lost" 20 (sequenced_prefix db)

let test_manual_policy_never_auto () =
  let _, _, db = mem_db () in
  for i = 0 to 49 do
    KVDb.update db (sequenced_update i)
  done;
  check Alcotest.int "no auto checkpoints" 0 (KVDb.stats db).Smalldb.checkpoints_written

(* ------------------------------------------------------------------ *)
(* Audit trail                                                          *)

let test_fold_log_audit () =
  let _, _, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 5 to 6 do
    KVDb.update db (sequenced_update i)
  done;
  let entries = KVDb.fold_log db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) in
  (* Only the current generation's updates, with absolute LSNs. *)
  check Alcotest.int "two entries" 2 (List.length entries);
  (match List.rev entries with
  | [ (5, KV.Set (k5, _)); (6, KV.Set (k6, _)) ] ->
    check Alcotest.string "lsn 5 key" (sequenced_key 5) k5;
    check Alcotest.string "lsn 6 key" (sequenced_key 6) k6
  | _ -> Alcotest.fail "wrong audit entries");
  (* log_suffix covering and non-covering. *)
  (match KVDb.log_suffix db ~from:6 with
  | Some [ (6, _) ] -> ()
  | _ -> Alcotest.fail "suffix from 6");
  (match KVDb.log_suffix db ~from:5 with
  | Some l -> check Alcotest.int "suffix from 5" 2 (List.length l)
  | None -> Alcotest.fail "should cover 5");
  match KVDb.log_suffix db ~from:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "2 was absorbed by the checkpoint"

(* ------------------------------------------------------------------ *)
(* Type safety of the store                                             *)

let test_foreign_app_rejected () =
  let module Other = struct
    type state = int list
    type update = int

    let name = "other-app"
    let codec_state = P.list P.int
    let codec_update = P.int
    let init () = []
    let apply st u = u :: st
  end in
  let module OtherDb = Smalldb.Make (Other) in
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  match OtherDb.open_ fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign app opened someone else's store"

let test_same_wire_different_name_rejected () =
  (* Same state/update wire types, different application name. *)
  let module KV2 = struct
    include KV

    let name = "test-kv-imposter"
  end in
  let module Db2 = Smalldb.Make (KV2) in
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  match Db2.open_ fs with
  | Error e ->
    Alcotest.check Alcotest.bool "names the app" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "imposter app accepted"

(* ------------------------------------------------------------------ *)
(* Hard errors (§4)                                                     *)

let retained_config = { Smalldb.default_config with retain_previous = true }

let test_hard_error_checkpoint_fallback () =
  let store, fs, db = mem_db ~config:retained_config () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  (* generation 1 *)
  for i = 5 to 7 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  (* Damage the current checkpoint: recovery must reload the previous
     checkpoint, replay the previous log, then the current log. *)
  Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:10 ~len:20;
  let db2 = KVDb.open_exn ~config:retained_config fs in
  check Alcotest.int "full state recovered" 8 (sequenced_prefix db2);
  let r = (KVDb.stats db2).Smalldb.recovery in
  Alcotest.check Alcotest.bool "used previous generation" true
    r.Smalldb.used_previous_generation;
  (* The rescue checkpoint wrote a fresh generation; another restart
     must now succeed without the fallback. *)
  KVDb.close db2;
  let db3 = KVDb.open_exn ~config:retained_config fs in
  check Alcotest.int "stable thereafter" 8 (sequenced_prefix db3);
  Alcotest.check Alcotest.bool "no fallback needed" false
    (KVDb.stats db3).Smalldb.recovery.Smalldb.used_previous_generation

let test_hard_error_without_retention_fails () =
  let store, fs, db = mem_db () in
  set db "a" "1";
  KVDb.checkpoint db;
  KVDb.close db;
  Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:5 ~len:5;
  match KVDb.open_ fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened with damaged checkpoint and no fallback"

let test_interior_log_damage_refused () =
  (* Valid committed entries beyond a damaged one: recovery must refuse
     to silently truncate them under the default policy, and recover
     them under Skip_damaged. *)
  let store, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (KV.Set (sequenced_key i, String.make 2000 'v'))
  done;
  KVDb.close db;
  Mem.damage store ~file:(Store.log_file 0) ~offset:2500 ~len:100;
  (match KVDb.open_ fs with
  | Error e ->
    Alcotest.check Alcotest.bool "mentions interior damage" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "interior damage silently truncated");
  let skip_config = { Smalldb.default_config with log_recovery = `Skip_damaged } in
  match KVDb.open_ ~config:skip_config fs with
  | Ok db2 ->
    check Alcotest.int "entries beyond damage recovered" 4
      (KVDb.query db2 Hashtbl.length)
  | Error e -> Alcotest.fail e

let test_skip_damaged_log_entry () =
  let skip_config = { Smalldb.default_config with log_recovery = `Skip_damaged } in
  let store, fs, db = mem_db ~config:skip_config () in
  (* Large-ish entries so one can be damaged in isolation. *)
  for i = 0 to 3 do
    KVDb.update db (KV.Set (sequenced_key i, String.make 2000 'v'))
  done;
  KVDb.close db;
  (* Damage entry #1's payload region (device-level hard error). *)
  Mem.damage store ~file:(Store.log_file 0) ~offset:2500 ~len:100;
  let db2 = KVDb.open_exn ~config:skip_config fs in
  let s = KVDb.stats db2 in
  check Alcotest.int "skipped one" 1 s.Smalldb.recovery.Smalldb.skipped_damaged;
  check Alcotest.int "replayed the rest" 3 s.Smalldb.recovery.Smalldb.replayed;
  (* The database is missing exactly the damaged update. *)
  check Alcotest.(option string) "entry 0 present" (Some (String.make 2000 'v'))
    (get db2 (sequenced_key 0));
  check Alcotest.(option string) "entry 1 lost" None (get db2 (sequenced_key 1));
  check Alcotest.bool "entry 3 present" true (get db2 (sequenced_key 3) <> None)

(* ------------------------------------------------------------------ *)
(* Audit-trail archiving and history (§4)                               *)

let archive_config = { Smalldb.default_config with archive_logs = true }

let test_archive_accumulates () =
  let _, fs, db = mem_db ~config:archive_config () in
  for i = 0 to 3 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 4 to 6 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let archives = Sdb_checkpoint.Checkpoint_store.archived_logs fs in
  check Alcotest.(list (pair int string)) "two archives"
    [ (0, "archive-logfile0"); (1, "archive-logfile1") ]
    archives;
  (* Archives survive restart cleanup. *)
  KVDb.close db;
  let db2 = KVDb.open_exn ~config:archive_config fs in
  check Alcotest.int "archives survive recovery" 2
    (List.length (Sdb_checkpoint.Checkpoint_store.archived_logs fs));
  KVDb.close db2

let test_history_fold_and_state_at () =
  let _, _fs, db = mem_db ~config:archive_config () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i);
    if i = 3 || i = 7 then KVDb.checkpoint db
  done;
  Alcotest.check Alcotest.bool "history available" true (KVDb.History.available db);
  (* The full trail, in order, across archives and the live log. *)
  (match KVDb.History.fold db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    let entries = List.rev entries in
    check Alcotest.int "all ten updates" 10 (List.length entries);
    List.iteri
      (fun i (lsn, u) ->
        check Alcotest.int "lsn order" i lsn;
        match u with
        | KV.Set (k, _) -> check Alcotest.string "key" (sequenced_key i) k
        | KV.Del _ -> Alcotest.fail "unexpected delete")
      entries);
  (* Time travel. *)
  (match KVDb.History.state_at db ~lsn:5 with
  | Error e -> Alcotest.fail e
  | Ok st -> check Alcotest.int "state at lsn 5" 5 (Hashtbl.length st));
  (match KVDb.History.state_at db ~lsn:0 with
  | Error e -> Alcotest.fail e
  | Ok st -> check Alcotest.int "state at lsn 0" 0 (Hashtbl.length st));
  (match KVDb.History.state_at db ~lsn:10 with
  | Error e -> Alcotest.fail e
  | Ok st ->
    check Alcotest.int "state at tip" 10 (Hashtbl.length st);
    (* It must equal the live state. *)
    let live = kv_contents db in
    let replayed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st [] |> List.sort compare in
    check Alcotest.(list (pair string string)) "tip equals live" live replayed);
  match KVDb.History.state_at db ~lsn:11 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lsn beyond tip accepted"

let test_history_unavailable_without_archiving () =
  let _, _, db = mem_db () in
  KVDb.update db (sequenced_update 0);
  KVDb.checkpoint db;
  KVDb.update db (sequenced_update 1);
  Alcotest.check Alcotest.bool "no archive, no history" false
    (KVDb.History.available db);
  match KVDb.History.fold db ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete history accepted"

let test_history_survives_crash_mid_checkpoint () =
  (* A crash between the commit point and the archival rename must not
     lose the superseded log from the trail. *)
  let found_crash = ref false in
  let k = ref 1 in
  while not !found_crash && !k < 60 do
    let store = Mem.create_store ~seed:(7000 + !k) () in
    let fs = Mem.fs store in
    let db = KVDb.open_exn ~config:archive_config fs in
    for i = 0 to 3 do
      KVDb.update db (sequenced_update i)
    done;
    let crashed = ref false in
    (try
       Mem.set_crash_after store ~ops:!k ~mode:Mem.Clean;
       KVDb.checkpoint db;
       Mem.disarm_crash store
     with Mem.Crash -> crashed := true);
    Mem.disarm_crash store;
    if !crashed then begin
      let db2 = KVDb.open_exn ~config:archive_config fs in
      (* Whatever generation we recovered into, if the checkpoint
         committed then history must still be complete. *)
      if (KVDb.stats db2).Smalldb.generation = 1 then begin
        found_crash := true;
        Alcotest.check Alcotest.bool "history complete after crash" true
          (KVDb.History.available db2)
      end;
      KVDb.close db2
    end;
    incr k
  done;
  Alcotest.check Alcotest.bool "exercised a post-commit crash" true !found_crash

(* History property: with archiving on, state_at any lsn equals the
   model folded over the first lsn updates, across random checkpoint
   placements. *)
let prop_history_prefix =
  Helpers.qtest ~count:40 "state_at = model prefix"
    QCheck2.Gen.(
      pair
        (list_size (1 -- 25) (pair (0 -- 8) (0 -- 99)))
        (list_size (0 -- 4) (0 -- 24)))
    (fun (ops, ckpt_points) ->
      let _, _, db = mem_db ~config:archive_config () in
      List.iteri
        (fun i (k, v) ->
          KVDb.update db (KV.Set (Printf.sprintf "k%d" k, string_of_int v));
          if List.mem i ckpt_points then KVDb.checkpoint db)
        ops;
      let n = List.length ops in
      let probe = [ 0; n / 2; n ] in
      List.for_all
        (fun lsn ->
          match KVDb.History.state_at db ~lsn with
          | Error _ -> false
          | Ok st ->
            let model = Hashtbl.create 8 in
            List.iteri
              (fun i (k, v) ->
                if i < lsn then
                  Hashtbl.replace model (Printf.sprintf "k%d" k) (string_of_int v))
              ops;
            Hashtbl.length st = Hashtbl.length model
            && Hashtbl.fold
                 (fun k v acc -> acc && Hashtbl.find_opt st k = Some v)
                 model true)
        probe)

(* ------------------------------------------------------------------ *)
(* Timing counters                                                      *)

let test_phase_times_accumulate () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let p = (KVDb.stats db).Smalldb.phase in
  Alcotest.check Alcotest.bool "pickle time" true (p.Smalldb.pickle_s >= 0.0);
  Alcotest.check Alcotest.bool "log time" true (p.Smalldb.log_s >= 0.0);
  Alcotest.check Alcotest.bool "ckpt pickle time" true (p.Smalldb.ckpt_pickle_s >= 0.0);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  let p2 = (KVDb.stats db2).Smalldb.phase in
  Alcotest.check Alcotest.bool "restore timed" true (p2.Smalldb.restore_s >= 0.0)

(* The span taxonomy is a public interface: exactly these names, in
   this order, from the engine's code paths. *)

module Trace = Sdb_obs.Trace

let with_ring f =
  let ring = Trace.Ring.create ~capacity:64 in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) (fun () -> f ring)

let span_names ring = List.map (fun s -> s.Trace.name) (Trace.Ring.contents ring)

let test_update_span_sequence () =
  let _, _, db = mem_db () in
  with_ring (fun ring ->
      KVDb.update db (KV.Set ("k", "v"));
      check
        (Alcotest.list Alcotest.string)
        "one update, four phase spans"
        [ "update.verify"; "update.log"; "update.apply"; "update.notify" ]
        (span_names ring);
      (* Every span carries the application name. *)
      List.iter
        (fun s ->
          check Alcotest.(option string) "app attr" (Some "test-kv")
            (List.assoc_opt "app" s.Trace.attrs))
        (Trace.Ring.contents ring);
      Trace.Ring.clear ring;
      KVDb.checkpoint db;
      check
        (Alcotest.list Alcotest.string)
        "checkpoint span" [ "checkpoint" ] (span_names ring))

let test_recovery_spans_after_reopen () =
  let _, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  with_ring (fun ring ->
      let db2 = KVDb.open_exn fs in
      check
        (Alcotest.list Alcotest.string)
        "recovery spans in phase order"
        [ "recovery.restore"; "recovery.replay" ]
        (span_names ring);
      let replay = List.nth (Trace.Ring.contents ring) 1 in
      check Alcotest.(option string) "replayed count attr" (Some "5")
        (List.assoc_opt "replayed" replay.Trace.attrs);
      KVDb.close db2)

(* ------------------------------------------------------------------ *)
(* Concurrent (fuzzy) checkpoints                                       *)

(* An immutable application, as checkpoint_concurrent requires. *)
module StrMap = Map.Make (String)

module MapKV = struct
  type state = string StrMap.t
  type update = Set of string * string | Del of string

  let name = "map-kv"

  let codec_state =
    P.conv ~name:"map-kv.state"
      (fun m -> StrMap.bindings m)
      (fun bindings -> StrMap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.variant ~name:"map-kv.update"
      [
        P.case "set"
          (P.pair P.string P.string)
          (function Set (k, v) -> Some (k, v) | Del _ -> None)
          (fun (k, v) -> Set (k, v));
        P.case "del" P.string
          (function Del k -> Some k | Set _ -> None)
          (fun k -> Del k);
      ]

  let init () = StrMap.empty

  let apply st = function
    | Set (k, v) -> StrMap.add k v st
    | Del k -> StrMap.remove k st
end

module MapDb = Smalldb.Make (MapKV)

let test_concurrent_checkpoint_basic () =
  let store = Mem.create_store ~seed:71 () in
  let fs = Mem.fs store in
  let db = MapDb.open_exn fs in
  for i = 0 to 9 do
    MapDb.update db (MapKV.Set (sequenced_key i, sequenced_value i))
  done;
  MapDb.checkpoint_concurrent db;
  let s = MapDb.stats db in
  check Alcotest.int "generation advanced" 1 s.Smalldb.generation;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  check Alcotest.int "lsn preserved" 10 s.Smalldb.lsn;
  MapDb.update db (MapKV.Set (sequenced_key 10, sequenced_value 10));
  MapDb.close db;
  let db2 = MapDb.open_exn fs in
  check Alcotest.int "state complete" 11 (MapDb.query db2 StrMap.cardinal);
  check Alcotest.int "one replay" 1 (MapDb.stats db2).Smalldb.recovery.Smalldb.replayed

let test_concurrent_checkpoint_carries_tail () =
  (* Updates committed between the snapshot and the switch must land in
     the new generation's log.  We simulate the race deterministically:
     a writer thread runs while the checkpoint pickles a large state. *)
  let store = Mem.create_store ~seed:72 () in
  let fs = Mem.fs store in
  let db = MapDb.open_exn fs in
  (* Large-ish state so phase 2 takes measurable time. *)
  for i = 0 to 4999 do
    MapDb.update db (MapKV.Set (Printf.sprintf "bulk%05d" i, String.make 40 'x'))
  done;
  let stop = ref false in
  let written = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        while not !stop do
          MapDb.update db (MapKV.Set (Printf.sprintf "live%06d" !written, "v"));
          incr written;
          Thread.yield ()
        done)
      ()
  in
  for _ = 1 to 3 do
    MapDb.checkpoint_concurrent db
  done;
  stop := true;
  Thread.join writer;
  let total = 5000 + !written in
  check Alcotest.int "nothing lost in memory" total (MapDb.query db StrMap.cardinal);
  check Alcotest.int "lsn" total (MapDb.stats db).Smalldb.lsn;
  MapDb.close db;
  let db2 = MapDb.open_exn fs in
  check Alcotest.int "nothing lost on disk" total (MapDb.query db2 StrMap.cardinal);
  MapDb.close db2

let test_concurrent_checkpoint_crash_sweep () =
  (* Crash at every disk operation inside checkpoint_concurrent. *)
  List.iter
    (fun mode ->
      let rec go k any =
        let store = Mem.create_store ~seed:(9000 + k) () in
        let fs = Mem.fs store in
        let db = MapDb.open_exn fs in
        for i = 0 to 7 do
          MapDb.update db (MapKV.Set (sequenced_key i, sequenced_value i))
        done;
        let crashed = ref false in
        (try
           Mem.set_crash_after store ~ops:k ~mode;
           MapDb.checkpoint_concurrent db;
           Mem.disarm_crash store
         with Mem.Crash -> crashed := true);
        Mem.disarm_crash store;
        if !crashed then begin
          (match MapDb.open_ fs with
          | Error e -> Alcotest.fail (Printf.sprintf "ckpt crash@%d: %s" k e)
          | Ok db2 ->
            check Alcotest.int
              (Printf.sprintf "ckpt crash@%d state" k)
              8
              (MapDb.query db2 StrMap.cardinal);
            MapDb.close db2);
          go (k + 1) true
        end
        else if not any then Alcotest.fail "sweep never crashed"
      in
      go 1 false)
    [ Mem.Clean; Mem.Torn ]

let test_concurrent_checkpoint_rejects_archiving () =
  let store = Mem.create_store ~seed:73 () in
  let db =
    MapDb.open_exn ~config:{ Smalldb.default_config with archive_logs = true }
      (Mem.fs store)
  in
  Alcotest.check_raises "archive_logs rejected"
    (Invalid_argument "Smalldb.checkpoint_concurrent: incompatible with archive_logs")
    (fun () -> MapDb.checkpoint_concurrent db)

(* ------------------------------------------------------------------ *)
(* Real file system integration                                         *)

let test_real_fs_end_to_end () =
  (* The same engine over an actual directory: creation, updates,
     checkpoint (rename-based switch), torn-tail truncation via real
     ftruncate, and recovery. *)
  let fs = Sdb_storage.Real_fs.create ~root:(Helpers.fresh_dir "engine") in
  let db = KVDb.open_exn fs in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 10 to 14 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "real fs recovery" 15 (sequenced_prefix db2);
  check Alcotest.int "replayed the tail" 5
    (KVDb.stats db2).Smalldb.recovery.Smalldb.replayed;
  (* Chop bytes off the real log to fake a torn tail. *)
  KVDb.update db2 (sequenced_update 15);
  let gen = (KVDb.stats db2).Smalldb.generation in
  KVDb.close db2;
  let log = Store.log_file gen in
  fs.Fs.truncate log (fs.Fs.file_size log - 3);
  let db3 = KVDb.open_exn fs in
  check Alcotest.int "torn tail dropped on real fs" 15 (sequenced_prefix db3);
  Alcotest.check Alcotest.bool "tail discard reported" true
    (KVDb.stats db3).Smalldb.recovery.Smalldb.log_tail_discarded;
  (* And appending resumes cleanly after the real truncation. *)
  KVDb.update db3 (sequenced_update 15);
  KVDb.close db3;
  let db4 = KVDb.open_exn fs in
  check Alcotest.int "resumed" 16 (sequenced_prefix db4);
  KVDb.close db4

(* ------------------------------------------------------------------ *)
(* Concurrency                                                          *)

let test_concurrent_updates_and_queries () =
  let _, _, db = mem_db () in
  let writers =
    List.init 4 (fun w ->
        Thread.create
          (fun () ->
            for i = 0 to 99 do
              KVDb.update db (KV.Set (Printf.sprintf "w%d-%d" w i, string_of_int i))
            done)
          ())
  in
  let reader_errors = ref 0 in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 0 to 200 do
              let n = KVDb.query db Hashtbl.length in
              if n < 0 then incr reader_errors
            done)
          ())
  in
  List.iter Thread.join writers;
  List.iter Thread.join readers;
  check Alcotest.int "no reader errors" 0 !reader_errors;
  check Alcotest.int "all writes applied" 400 (KVDb.query db Hashtbl.length);
  check Alcotest.int "lsn" 400 (KVDb.stats db).Smalldb.lsn

let test_checkpoint_during_concurrent_queries () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  let stop = ref false in
  let reader =
    Thread.create
      (fun () ->
        while not !stop do
          ignore (KVDb.query db Hashtbl.length)
        done)
      ()
  in
  for _ = 1 to 5 do
    KVDb.checkpoint db
  done;
  stop := true;
  Thread.join reader;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "state intact" 10 (sequenced_prefix db2)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: disk full                                      *)

module Fault = Sdb_storage.Fault_fs

let fault_db () =
  let store = Mem.create_store ~seed:11 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  (store, ctl, ffs, KVDb.open_exn ffs)

let test_disk_full_degrades_and_recovers () =
  let store, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  (* Cap the store so tightly that neither an append nor the exit
     checkpoint fits. *)
  Mem.set_capacity store (Some (Mem.total_bytes store + 4));
  (match KVDb.update db (sequenced_update 10) with
  | _ -> fail "expected Degraded"
  | exception Smalldb.Degraded _ -> ());
  (* The refused update failed cleanly: memory still equals disk. *)
  check Alcotest.int "committed prefix intact" 10 (sequenced_prefix db);
  (match KVDb.health db with
  | `Degraded _ -> ()
  | _ -> fail "expected degraded health");
  (* Read-only mode: enquiries are served... *)
  check
    Alcotest.(option string)
    "enquiries served" (Some "v0000") (get db "k0000");
  (* ...a degraded engine can still be scrubbed... *)
  let r = KVDb.scrub db in
  check Alcotest.bool "scrub runs while degraded" true r.Smalldb.replay_consistent;
  (* ...and updates keep being refused (the retry checkpoint cannot
     reclaim enough under this cap either). *)
  Thread.delay 0.03;
  (match KVDb.update db (sequenced_update 10) with
  | _ -> fail "expected Degraded on retry"
  | exception Smalldb.Degraded _ -> ());
  (* Space turns up (operator freed some): once the backoff expires the
     next update first checkpoints — resetting the log is what reclaims
     space — and then commits normally. *)
  Mem.set_capacity store (Some (Mem.total_bytes store + 2048));
  Thread.delay 0.1;
  KVDb.update db (sequenced_update 10);
  check Alcotest.int "auto-recovered" 11 (sequenced_prefix db);
  (match KVDb.health db with
  | `Healthy -> ()
  | _ -> fail "expected healthy after recovery");
  Alcotest.check Alcotest.bool "exit ran a checkpoint" true
    ((KVDb.stats db).Smalldb.generation > 0);
  KVDb.close db

let test_write_fault_rejects_cleanly () =
  let _, ctl, _, db = fault_db () in
  set db "a" "1";
  Fault.fail_nth ctl ~op:`Write ~n:1 ();
  (* The failed append is rolled back (truncated off), so this is a
     pre-commit-point failure: the one update fails, nothing else. *)
  (match set db "b" "2" with
  | _ -> fail "expected Io_error"
  | exception Fs.Io_error _ -> ());
  check Alcotest.(option string) "rejected update absent" None (get db "b");
  (match KVDb.health db with `Healthy -> () | _ -> fail "expected healthy");
  set db "b" "2";
  check Alcotest.(option string) "usable after clean reject" (Some "2") (get db "b")

let test_fsync_fault_poisons () =
  let _, ctl, _, db = fault_db () in
  set db "a" "1";
  Fault.fail_nth ctl ~op:`Sync ~n:1 ();
  (* A failed fsync may have left any prefix durable — the fsyncgate
     rule: never retry it, poison instead. *)
  (match set db "b" "2" with
  | _ -> fail "expected Io_error"
  | exception Fs.Io_error _ -> ());
  (match KVDb.health db with `Poisoned -> () | _ -> fail "expected poisoned");
  (match get db "a" with
  | _ -> fail "expected Poisoned"
  | exception Smalldb.Poisoned -> ())

(* ------------------------------------------------------------------ *)
(* Integrity scrubbing                                                  *)

(* Canonical digest for the KV app: sorted bindings, so equal tables
   give equal strings regardless of insertion order. *)
let kv_digest st =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) st []
  |> List.sort compare
  |> List.concat_map (fun (k, v) -> [ k; v ])
  |> String.concat "\x00" |> Digest.string

let test_scrub_clean () =
  let _, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 10 to 14 do
    KVDb.update db (sequenced_update i)
  done;
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "no findings" 0 (List.length r.Smalldb.findings);
  check Alcotest.bool "replay consistent" true r.Smalldb.replay_consistent;
  check Alcotest.bool "no repair needed" false r.Smalldb.repaired;
  let gen = (KVDb.stats db).Smalldb.generation in
  check Alcotest.bool "scanned the checkpoint" true
    (List.mem (Store.checkpoint_file gen) r.Smalldb.scanned_files);
  check Alcotest.bool "scanned the log" true
    (List.mem (Store.log_file gen) r.Smalldb.scanned_files);
  check Alcotest.bool "report retained" true (KVDb.last_scrub db = Some r)

let test_scrub_detects_and_repairs_damage () =
  let store, fs, db = mem_db () in
  for i = 0 to 19 do
    KVDb.update db (sequenced_update i)
  done;
  let gen = (KVDb.stats db).Smalldb.generation in
  let log = Store.log_file gen in
  (* Silently rot one committed entry in the middle of the log. *)
  Mem.damage store ~file:log ~offset:60 ~len:8;
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.bool "damage found" true (r.Smalldb.findings <> []);
  check Alcotest.bool "file and offset reported" true
    (List.exists
       (fun f ->
         String.equal f.Smalldb.file log
         && f.Smalldb.offset >= 0
         && f.Smalldb.offset <= 60)
       r.Smalldb.findings);
  check Alcotest.bool "replay inconsistent" false r.Smalldb.replay_consistent;
  (* Self-repair: memory is the good copy; a fresh checkpoint restores
     consistency and the damaged generation is dropped. *)
  let r2 = KVDb.scrub ~repair:true ~digest:kv_digest db in
  check Alcotest.bool "repaired" true r2.Smalldb.repaired;
  let r3 = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "clean after repair" 0 (List.length r3.Smalldb.findings);
  check Alcotest.bool "consistent after repair" true r3.Smalldb.replay_consistent;
  (* Still updatable, and the repaired store recovers everything. *)
  KVDb.update db (sequenced_update 20);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "repaired store recovers" 21 (sequenced_prefix db2);
  KVDb.close db2

let test_scrub_digest_mismatch () =
  let _, _, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  (* Corrupt memory behind the engine's back: every file is pristine,
     yet disk no longer replays to the live state.  Only the digest
     cross-check can see this. *)
  KVDb.query db (fun st -> Hashtbl.replace st "sneak" "gremlin");
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.bool "whole-state finding" true
    (List.exists (fun f -> f.Smalldb.offset = -1) r.Smalldb.findings);
  check Alcotest.bool "replay inconsistent" false r.Smalldb.replay_consistent;
  (* Without a digest the divergence is invisible — which is exactly
     why the nameserver supplies one. *)
  let r2 = KVDb.scrub db in
  check Alcotest.bool "invisible without digest" true r2.Smalldb.replay_consistent

let test_background_scrubber_repairs () =
  let store, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  let gen = (KVDb.stats db).Smalldb.generation in
  Mem.damage store ~file:(Store.log_file gen) ~offset:40 ~len:4;
  KVDb.start_scrubber ~interval:0.02 ~digest:kv_digest db;
  (match KVDb.start_scrubber ~interval:9. db with
  | _ -> fail "expected Invalid_argument on double start"
  | exception Invalid_argument _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match KVDb.last_scrub db with
    | Some r when r.Smalldb.repaired -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then fail "scrubber never repaired"
      else begin
        Thread.delay 0.01;
        wait ()
      end
  in
  wait ();
  KVDb.stop_scrubber db;
  KVDb.stop_scrubber db;
  (* idempotent *)
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "clean after background repair" 0
    (List.length r.Smalldb.findings);
  KVDb.close db

let () =
  Helpers.run "core"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create and query" `Quick test_create_and_query;
          Alcotest.test_case "durability across reopen" `Quick
            test_durability_across_reopen;
          Alcotest.test_case "checkpoint resets log" `Quick test_checkpoint_resets_log;
          Alcotest.test_case "close idempotent" `Quick test_close_then_reopen_idempotent;
          Alcotest.test_case "empty db durable" `Quick
            test_open_empty_fs_is_durable_immediately;
        ] );
      ( "update-protocol",
        [
          Alcotest.test_case "precondition blocks update" `Quick
            test_precondition_blocks_update;
          Alcotest.test_case "precondition passes" `Quick test_precondition_passes;
          Alcotest.test_case "one write one sync" `Quick test_update_is_one_write_one_sync;
          Alcotest.test_case "batch single sync" `Quick test_batch_single_sync;
          Alcotest.test_case "apply failure poisons" `Quick test_apply_failure_poisons;
          Alcotest.test_case "raising precondition releases lock" `Quick
            test_raising_precondition_releases_lock;
          Alcotest.test_case "raising pickler releases lock" `Quick
            test_raising_pickler_releases_lock;
          Alcotest.test_case "raising pickler in batch" `Quick
            test_raising_pickler_in_batch;
          Alcotest.test_case "raising subscriber after commit" `Quick
            test_raising_subscriber_after_commit;
        ] );
      ( "policies",
        [
          Alcotest.test_case "every n updates" `Quick test_policy_every_n;
          Alcotest.test_case "batch crosses the boundary" `Quick
            test_policy_every_n_batch_crossing;
          Alcotest.test_case "every n: no duplicate checkpoints" `Quick
            test_policy_every_n_concurrent_no_duplicates;
          Alcotest.test_case "log bytes threshold" `Quick test_policy_log_bytes;
          Alcotest.test_case "manual never auto" `Quick test_manual_policy_never_auto;
        ] );
      ( "audit",
        [ Alcotest.test_case "fold_log and log_suffix" `Quick test_fold_log_audit ] );
      ( "type-safety",
        [
          Alcotest.test_case "foreign app rejected" `Quick test_foreign_app_rejected;
          Alcotest.test_case "imposter name rejected" `Quick
            test_same_wire_different_name_rejected;
        ] );
      ( "hard-errors",
        [
          Alcotest.test_case "checkpoint fallback" `Quick
            test_hard_error_checkpoint_fallback;
          Alcotest.test_case "no retention no fallback" `Quick
            test_hard_error_without_retention_fails;
          Alcotest.test_case "skip damaged log entry" `Quick test_skip_damaged_log_entry;
          Alcotest.test_case "interior log damage refused" `Quick
            test_interior_log_damage_refused;
        ] );
      ( "history",
        [
          Alcotest.test_case "archive accumulates" `Quick test_archive_accumulates;
          Alcotest.test_case "fold and state_at" `Quick test_history_fold_and_state_at;
          Alcotest.test_case "unavailable without archiving" `Quick
            test_history_unavailable_without_archiving;
          Alcotest.test_case "survives crash mid-checkpoint" `Quick
            test_history_survives_crash_mid_checkpoint;
          prop_history_prefix;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "phase times" `Quick test_phase_times_accumulate;
          Alcotest.test_case "update span sequence" `Quick test_update_span_sequence;
          Alcotest.test_case "recovery spans after reopen" `Quick
            test_recovery_spans_after_reopen;
        ] );
      ( "concurrent-checkpoint",
        [
          Alcotest.test_case "basic" `Quick test_concurrent_checkpoint_basic;
          Alcotest.test_case "carries concurrent tail" `Quick
            test_concurrent_checkpoint_carries_tail;
          Alcotest.test_case "crash sweep" `Quick
            test_concurrent_checkpoint_crash_sweep;
          Alcotest.test_case "rejects archiving" `Quick
            test_concurrent_checkpoint_rejects_archiving;
        ] );
      ( "real-fs",
        [ Alcotest.test_case "end to end on a directory" `Quick test_real_fs_end_to_end ]
      );
      ( "concurrency",
        [
          Alcotest.test_case "updates and queries" `Quick
            test_concurrent_updates_and_queries;
          Alcotest.test_case "checkpoint during queries" `Quick
            test_checkpoint_during_concurrent_queries;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "disk full degrades and recovers" `Quick
            test_disk_full_degrades_and_recovers;
          Alcotest.test_case "write fault rejects cleanly" `Quick
            test_write_fault_rejects_cleanly;
          Alcotest.test_case "fsync fault poisons" `Quick test_fsync_fault_poisons;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean store" `Quick test_scrub_clean;
          Alcotest.test_case "detects and repairs damage" `Quick
            test_scrub_detects_and_repairs_damage;
          Alcotest.test_case "digest catches divergence" `Quick
            test_scrub_digest_mismatch;
          Alcotest.test_case "background scrubber repairs" `Quick
            test_background_scrubber_repairs;
        ] );
    ]
