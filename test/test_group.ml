(* Group-commit semantics (DESIGN.md §4d).

   Correctness under the group coordinator: concurrent updaters all
   commit with dense LSNs and subscribers see them in stage order; a
   failing precondition fails only its own member; a group-wide log
   failure fails every member with the §4b/§4c taxonomy (Degraded on
   no-space, Poisoned after a failed fsync).  Batching itself is
   timing-dependent, so assertions here are about semantics; the
   deterministic one-fsync-per-group property is asserted through
   [update_batch], which always rides as a single member. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Fault = Sdb_storage.Fault_fs
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace
open Helpers

let grouped () = Smalldb.default_config

let mem_grouped ?config () =
  let config = match config with Some c -> c | None -> grouped () in
  mem_db ~config ()

(* ------------------------------------------------------------------ *)
(* Single-threaded: semantics identical to the solo path               *)

let test_solo_semantics () =
  let store, _, db = mem_grouped () in
  let seen = ref [] in
  let _sub = KVDb.subscribe db (fun lsn u -> seen := (lsn, u) :: !seen) in
  KVDb.update db (sequenced_update 0);
  KVDb.update db (sequenced_update 1);
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> Error "nope")
       (KV.Set ("bad", "x"))
   with
  | Error "nope" -> ()
  | _ -> fail "precondition Error must surface");
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> failwith "boom")
       (KV.Set ("bad", "x"))
   with
  | exception Failure m when m = "boom" -> ()
  | _ -> fail "raising precondition must propagate");
  check Alcotest.string "usable after raising precondition" "healthy"
    (match KVDb.health db with `Healthy -> "healthy" | _ -> "unhealthy");
  KVDb.update db (sequenced_update 2);
  check Alcotest.int "clean prefix" 3 (sequenced_prefix db);
  check Alcotest.int "lsn dense" 3 (KVDb.stats db).Smalldb.lsn;
  check
    Alcotest.(list int)
    "subscriber lsns in order" [ 0; 1; 2 ]
    (List.rev_map fst !seen);
  (* Durability: reopen replays the same prefix. *)
  KVDb.close db;
  let db2 = KVDb.open_exn (Mem.fs store) in
  check Alcotest.int "recovered prefix" 3 (sequenced_prefix db2);
  KVDb.close db2

let test_batch_is_one_member_one_fsync () =
  let _, _, db = mem_grouped () in
  KVDb.update db (sequenced_update 0);
  let syncs0 = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total") in
  let flushes0 =
    Metrics.counter_value (Metrics.counter "sdb_wal_group_flushes_total")
  in
  KVDb.update_batch db (List.init 5 (fun i -> sequenced_update (1 + i)));
  let syncs1 = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total") in
  let flushes1 =
    Metrics.counter_value (Metrics.counter "sdb_wal_group_flushes_total")
  in
  check Alcotest.int "one fsync for the whole batch" 1 (syncs1 - syncs0);
  check Alcotest.int "one group flush" 1 (flushes1 - flushes0);
  check Alcotest.int "all applied" 6 (sequenced_prefix db);
  check Alcotest.int "lsn dense across batch" 6 (KVDb.stats db).Smalldb.lsn;
  KVDb.close db

(* ------------------------------------------------------------------ *)
(* Concurrent updaters                                                 *)

let test_concurrent_dense_lsns_stage_order () =
  let store, _, db = mem_grouped () in
  let threads = 8 and per_thread = 25 in
  let total = threads * per_thread in
  let seen_mutex = Mutex.create () in
  let seen = ref [] in
  let _sub =
    KVDb.subscribe db (fun lsn u ->
        Mutex.lock seen_mutex;
        seen := (lsn, u) :: !seen;
        Mutex.unlock seen_mutex)
  in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              KVDb.update db
                (KV.Set (Printf.sprintf "t%d-%03d" tid i, string_of_int i))
            done)
          ())
  in
  List.iter Thread.join ths;
  let seen = List.rev !seen in
  check Alcotest.int "every update notified" total (List.length seen);
  (* Dense LSNs, notified in commit order. *)
  List.iteri
    (fun i (lsn, _) -> check Alcotest.int "notification order is LSN order" i lsn)
    seen;
  check Alcotest.int "lsn total" total (KVDb.stats db).Smalldb.lsn;
  check Alcotest.int "all keys present" total
    (KVDb.query db (fun st -> Hashtbl.length st));
  (* The log is the stage order; subscribers must have seen exactly it. *)
  let logged =
    KVDb.fold_log db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) |> List.rev
  in
  check Alcotest.int "log holds every update" total (List.length logged);
  List.iter2
    (fun (llsn, lu) (slsn, su) ->
      check Alcotest.int "log vs notify lsn" llsn slsn;
      check Alcotest.bool "log vs notify update" true (lu = su))
    logged seen;
  (* Durability of the whole set. *)
  KVDb.close db;
  let db2 = KVDb.open_exn (Mem.fs store) in
  check Alcotest.int "recovered all" total
    (KVDb.query db2 (fun st -> Hashtbl.length st));
  KVDb.close db2

let test_precondition_fails_only_its_member () =
  (* Slow fsyncs widen the window so failing and succeeding updaters
     coexist in forming groups; the assertion holds regardless of how
     they actually grouped. *)
  let store = Mem.create_store ~seed:42 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Sync 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  let threads = 8 and per_thread = 10 in
  let failures = ref 0 and successes = ref 0 in
  let m = Mutex.create () in
  let bump r =
    Mutex.lock m;
    incr r;
    Mutex.unlock m
  in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              (* Every odd thread's updates are refused by their own
                 precondition; the rest must be unaffected. *)
              let doomed = tid mod 2 = 1 in
              match
                KVDb.update_checked db
                  ~precondition:(fun _ -> if doomed then Error i else Ok ())
                  (KV.Set (Printf.sprintf "t%d-%03d" tid i, "v"))
              with
              | Ok () -> bump successes
              | Error j when j = i -> bump failures
              | Error _ -> fail "wrong error payload"
            done)
          ())
  in
  List.iter Thread.join ths;
  let expect_ok = threads / 2 * per_thread in
  check Alcotest.int "refused members" (threads * per_thread - expect_ok)
    !failures;
  check Alcotest.int "committed members" expect_ok !successes;
  check Alcotest.int "lsn counts only successes" expect_ok
    (KVDb.stats db).Smalldb.lsn;
  check Alcotest.bool "healthy" true (KVDb.health db = `Healthy);
  KVDb.close db

(* The paper's "explore" step under contention: two create-if-absent
   updates start together, and each precondition looks for the key,
   then spends 0.5 ms deciding.  Preconditions are serial — each sees
   every update committed before it — so at most one of them creates. *)
let test_preconditions_are_serial () =
  let trials = 300 and doubles = ref 0 in
  for _ = 1 to trials do
    let _, _, db = mem_grouped () in
    let m = Mutex.create () and c = Condition.create () in
    let arrived = ref 0 and created = Atomic.make 0 in
    let barrier () =
      Mutex.lock m;
      incr arrived;
      Condition.broadcast c;
      while !arrived < 2 do
        Condition.wait c m
      done;
      Mutex.unlock m
    in
    let create_if_absent v () =
      barrier ();
      let precondition st =
        let absent = not (Hashtbl.mem st "k") in
        Thread.delay 0.0005;
        if absent then Ok () else Error ()
      in
      match KVDb.update_checked db ~precondition (KV.Set ("k", v)) with
      | Ok () -> Atomic.incr created
      | Error () -> ()
    in
    List.map (fun v -> Thread.create (create_if_absent v) ()) [ "a"; "b" ]
    |> List.iter Thread.join;
    if Atomic.get created = 2 then incr doubles;
    KVDb.close db
  done;
  check Alcotest.int "trials where both updates created the key" 0 !doubles

(* ------------------------------------------------------------------ *)
(* Group-wide failures                                                 *)

let test_fsync_fault_poisons_and_wakes_all () =
  let store = Mem.create_store ~seed:7 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  (* Slow writes pile updaters up behind the first group. *)
  Fault.set_latency ctl ~op:`Write 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  (* From here, the very next fsync — the first group's shared commit
     point — fails. *)
  Fault.fail_nth ctl ~op:`Sync ~n:1 ();
  let threads = 8 in
  let outcomes = Array.make threads `Unset in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            outcomes.(tid) <-
              (match KVDb.update db (KV.Set (Printf.sprintf "t%d" tid, "v")) with
              | () -> `Committed
              | exception Fs.Io_error _ -> `Io_error
              | exception Smalldb.Poisoned -> `Poisoned))
          ())
  in
  List.iter Thread.join ths;
  let count o = Array.to_list outcomes |> List.filter (( = ) o) |> List.length in
  (* Exactly one thread performed the failing fsync (the group leader:
     it re-raises the raw failure, like a solo updater would); every
     other member — parked in the same group, leading a later group, or
     arriving after the fact — observes Poisoned. *)
  check Alcotest.int "no commits" 0 (count `Committed);
  check Alcotest.int "one leader saw the I/O error" 1 (count `Io_error);
  check Alcotest.int "everyone else poisoned" (threads - 1) (count `Poisoned);
  check Alcotest.bool "engine poisoned" true (KVDb.health db = `Poisoned);
  (match KVDb.update db (KV.Set ("after", "x")) with
  | exception Smalldb.Poisoned -> ()
  | _ -> fail "poisoned engine must refuse updates");
  (* Reopen on the raw store recovers a clean (possibly empty) state. *)
  Fault.clear ctl;
  (try KVDb.close db with _ -> ());
  let db2 = KVDb.open_exn (Mem.fs store) in
  KVDb.query db2 (fun st ->
      Hashtbl.iter (fun _ v -> check Alcotest.string "value intact" "v" v) st);
  KVDb.update db2 (KV.Set ("after", "y"));
  KVDb.close db2

let test_no_space_degrades_and_fails_all_members () =
  let store = Mem.create_store ~seed:9 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Write 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  (* Cap the budget so the next group append overflows it. *)
  Fault.set_capacity ctl (Some (Mem.total_bytes store + 8));
  let threads = 6 in
  let degraded = ref 0 and committed = ref 0 in
  let m = Mutex.create () in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            match KVDb.update db (KV.Set (Printf.sprintf "t%d" tid, "v")) with
            | () ->
              Mutex.lock m;
              incr committed;
              Mutex.unlock m
            | exception Smalldb.Degraded _ ->
              Mutex.lock m;
              incr degraded;
              Mutex.unlock m)
          ())
  in
  List.iter Thread.join ths;
  check Alcotest.int "no member committed" 0 !committed;
  check Alcotest.int "every member degraded" threads !degraded;
  (match KVDb.health db with
  | `Degraded _ -> ()
  | _ -> fail "engine must be degraded (read-only), not poisoned");
  (* Nothing reached the log: memory still equals disk. *)
  check Alcotest.int "state untouched" 0
    (KVDb.query db (fun st -> Hashtbl.length st));
  (* Space turns up; the engine exits degraded mode by itself. *)
  Fault.set_capacity ctl None;
  Thread.delay 0.03;
  KVDb.update db (KV.Set ("recovered", "v"));
  check Alcotest.bool "healthy again" true (KVDb.health db = `Healthy);
  KVDb.close db

(* ------------------------------------------------------------------ *)
(* The auto-checkpoint and the checked updater under load              *)

(* The updater whose group crosses the policy's threshold runs the
   checkpoint after leaving the commit slot: while that checkpoint sits
   in its second phase (held open here, deterministically, at the
   creation of its file), the next update commits, and — finding a
   checkpoint already in flight — does not wait for it. *)
let test_auto_checkpoint_leaves_the_slot () =
  let store = Mem.create_store ~seed:11 () in
  let inner = Mem.fs store in
  let entered = Atomic.make false and release = Atomic.make false in
  let create name =
    if String.equal name "checkpoint1" then begin
      Atomic.set entered true;
      while not (Atomic.get release) do
        Thread.delay 0.001
      done
    end;
    inner.Fs.create name
  in
  let config = { (grouped ()) with policy = Smalldb.Every_n_updates 5 } in
  let db = KVDb.open_exn ~config { inner with Fs.create } in
  for i = 0 to 3 do
    KVDb.update db (sequenced_update i)
  done;
  let trigger = Thread.create (fun () -> KVDb.update db (sequenced_update 4)) () in
  while not (Atomic.get entered) do
    Thread.delay 0.001
  done;
  let next_done = Atomic.make false in
  let next =
    Thread.create
      (fun () ->
        KVDb.update db (sequenced_update 5);
        Atomic.set next_done true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get next_done)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  let committed_meanwhile = Atomic.get next_done in
  let generation = (KVDb.stats db).Smalldb.generation in
  Atomic.set release true;
  Thread.join trigger;
  Thread.join next;
  check Alcotest.bool "next group committed during phase 2" true committed_meanwhile;
  check Alcotest.int "checkpoint still in phase 2 then" 0 generation;
  let s = KVDb.stats db in
  check Alcotest.int "checkpoint installed" 1 s.Smalldb.generation;
  check Alcotest.int "one checkpoint" 1 s.Smalldb.checkpoints_written;
  check Alcotest.int "the update it overlapped was carried" 1 s.Smalldb.log_entries;
  KVDb.close db;
  let db2 = KVDb.open_exn (Mem.fs store) in
  check Alcotest.int "recovered prefix" 6 (sequenced_prefix db2);
  KVDb.close db2

(* A checked update never joins a forming group: it opens a group of
   its own, closing the forming one to joiners, and verifies at its
   seal.  Under a flood of plain updaters it must wait out at most the
   group committing and the one it closed, not every group the flood
   forms.  Its waits are its [update.join] spans with [role=checked]
   (the commit slot plus the linger); the groups waited out by one call
   are the log flushes that start inside the waits the call emits.
   (The wait for the Update lock itself is not counted: a barging lock
   can hand it to a plain updater first, however the coordinator
   orders groups.) *)
let test_checked_updater_under_flood () =
  let _, _, db = mem_grouped () in
  let m = Mutex.create () in
  let waits = ref [] and flushes = ref [] in
  Trace.set_sink
    (Some
       (fun s ->
         let keep r x =
           Mutex.lock m;
           r := x :: !r;
           Mutex.unlock m
         in
         if String.equal s.Trace.name "update.log" then keep flushes s.Trace.start_s
         else if
           String.equal s.Trace.name "update.join"
           && List.assoc_opt "role" s.Trace.attrs = Some "checked"
         then keep waits (s.Trace.start_s, s.Trace.start_s +. s.Trace.dur_s)));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) @@ fun () ->
  let stop = Atomic.make false in
  let flooders =
    List.init 4 (fun tid ->
        Thread.create
          (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              KVDb.update db (KV.Set (Printf.sprintf "f%d-%d" tid (!i mod 64), "x"));
              incr i
            done)
          ())
  in
  Thread.delay 0.01;
  let calls =
    List.init 40 (fun i ->
        let t0 = Unix.gettimeofday () in
        (match
           KVDb.update_checked db
             ~precondition:(fun _ -> Ok ())
             (KV.Set (Printf.sprintf "c%d" i, "v"))
         with
        | Ok () -> ()
        | Error () -> fail "precondition cannot fail");
        (t0, Unix.gettimeofday ()))
  in
  Atomic.set stop true;
  List.iter Thread.join flooders;
  let within (a, b) t = t >= a && t <= b in
  let groups_waited call =
    List.fold_left
      (fun n ((a, _) as wait) ->
        if within call a then
          n + List.length (List.filter (within wait) !flushes)
        else n)
      0 !waits
  in
  let worst = List.fold_left (fun w call -> max w (groups_waited call)) 0 calls in
  check Alcotest.bool "the checked updater waited for the flood" true (!waits <> []);
  check Alcotest.bool
    (Printf.sprintf "worst wait %d groups (bound 2)" worst)
    true (worst <= 2);
  check Alcotest.int "every checked update committed" 40
    (KVDb.query db (fun st ->
         Hashtbl.fold
           (fun k _ n -> if k.[0] = 'c' then n + 1 else n)
           st 0));
  KVDb.close db

let () =
  Helpers.run "group-commit"
    [
      ( "solo",
        [
          Alcotest.test_case "semantics match the solo path" `Quick
            test_solo_semantics;
          Alcotest.test_case "batch = one member, one fsync" `Quick
            test_batch_is_one_member_one_fsync;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "dense LSNs, notify in stage order" `Quick
            test_concurrent_dense_lsns_stage_order;
          Alcotest.test_case "precondition fails only its member" `Quick
            test_precondition_fails_only_its_member;
          Alcotest.test_case "preconditions are serial" `Quick
            test_preconditions_are_serial;
        ] );
      ( "failures",
        [
          Alcotest.test_case "failed fsync poisons, wakes all parked" `Quick
            test_fsync_fault_poisons_and_wakes_all;
          Alcotest.test_case "auto-checkpoint leaves the commit slot" `Quick
            test_auto_checkpoint_leaves_the_slot;
          Alcotest.test_case "checked updater under a flood" `Quick
            test_checked_updater_under_flood;
          Alcotest.test_case "no-space degrades, fails all cleanly" `Quick
            test_no_space_degrades_and_fails_all_members;
        ] );
    ]
