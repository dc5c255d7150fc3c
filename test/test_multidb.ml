(* Partitioned stores (§7): one ordinary engine per partition, each over
   its own [part<k>-] view of one store. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
open Helpers

let check = Alcotest.check

module PDb = KVDb.Partitioned

let mem_pdb ?config ?(partitions = 4) ?(seed = 61) () =
  let store = Mem.create_store ~seed () in
  let fs = Mem.fs store in
  (store, fs, PDb.open_exn ?config ~partitions fs)

let get db ~partition k =
  KVDb.query (PDb.partition db partition) (fun st -> Hashtbl.find_opt st k)

let set db ~partition k v = KVDb.update (PDb.partition db partition) (KV.Set (k, v))

let fill db ~partitions ~n =
  for i = 0 to n - 1 do
    let partition = i mod partitions in
    set db ~partition (Printf.sprintf "p%d-k%04d" partition i) (string_of_int i)
  done

let partition_sizes db ~partitions =
  List.init partitions (fun k -> KVDb.query (PDb.partition db k) Hashtbl.length)

(* A per-partition [Smalldb.stats] field, for every partition. *)
let per_partition db ~partitions f =
  List.init partitions (fun k -> f (KVDb.stats (PDb.partition db k)))

let total db ~partitions f = List.fold_left ( + ) 0 (per_partition db ~partitions f)

(* Run [f] on its own thread and fail unless it finishes within
   [seconds]: a partition wedged by another partition's lock shows up as
   a failure instead of a hung suite. *)
let within ~seconds f =
  let finished = Atomic.make false and raised = ref None in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        (try f () with e -> raised := Some e);
        Atomic.set finished true)
      ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "still blocked after %.0f s" seconds;
  Option.iter raise !raised

(* ------------------------------------------------------------------ *)

let test_basic_isolation () =
  let _, fs, db = mem_pdb () in
  set db ~partition:0 "shared-key" "zero";
  set db ~partition:1 "shared-key" "one";
  check Alcotest.(option string) "p0" (Some "zero") (get db ~partition:0 "shared-key");
  check Alcotest.(option string) "p1" (Some "one") (get db ~partition:1 "shared-key");
  check Alcotest.(option string) "p2 empty" None (get db ~partition:2 "shared-key");
  check Alcotest.int "lsn" 2 (total db ~partitions:4 (fun s -> s.Smalldb.lsn));
  check Alcotest.string "partition count on disk" "4" (Fs.read_file fs "partitions");
  Alcotest.check_raises "bad partition"
    (Invalid_argument "Smalldb.Partitioned: partition 9 out of range") (fun () ->
      ignore (get db ~partition:9 "x"))

let test_one_write_per_update () =
  let _, fs, db = mem_pdb () in
  set db ~partition:0 "warm" "up";
  let before = Fs.Counters.copy fs.Fs.counters in
  set db ~partition:2 "k" "v";
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs

let test_durability_no_checkpoints () =
  let _, fs, db = mem_pdb () in
  fill db ~partitions:4 ~n:40;
  PDb.close db;
  let db2 = PDb.open_exn ~partitions:4 fs in
  check Alcotest.(list int) "all partitions replayed" [ 10; 10; 10; 10 ]
    (partition_sizes db2 ~partitions:4);
  check Alcotest.int "lsn recovered" 40 (total db2 ~partitions:4 (fun s -> s.Smalldb.lsn));
  check Alcotest.int "replayed" 40
    (total db2 ~partitions:4 (fun s -> s.Smalldb.recovery.Smalldb.replayed));
  (* LSNs continue. *)
  set db2 ~partition:0 "after" "restart";
  check Alcotest.int "lsn" 41 (total db2 ~partitions:4 (fun s -> s.Smalldb.lsn))

let test_partition_checkpoint_reduces_replay () =
  let _, fs, db = mem_pdb () in
  fill db ~partitions:4 ~n:40;
  KVDb.checkpoint (PDb.partition db 1);
  PDb.close db;
  let db2 = PDb.open_exn ~partitions:4 fs in
  (* Partition 1's 10 updates were absorbed; the rest replay. *)
  check Alcotest.int "replayed only others" 30
    (total db2 ~partitions:4 (fun s -> s.Smalldb.recovery.Smalldb.replayed));
  check Alcotest.(list int) "state complete" [ 10; 10; 10; 10 ]
    (partition_sizes db2 ~partitions:4)

let test_round_robin () =
  let _, _, db = mem_pdb () in
  fill db ~partitions:4 ~n:8;
  (* Equal logs everywhere: the largest-log rule breaks ties towards the
     lowest index, and a checkpointed partition's log is empty. *)
  PDb.checkpoint_next db;
  PDb.checkpoint_next db;
  check Alcotest.(list int) "first two checkpointed" [ 1; 1; 0; 0 ]
    (per_partition db ~partitions:4 (fun s -> s.Smalldb.generation))

let test_auto_checkpoint_policy () =
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 10 } in
  let _, _, db = mem_pdb ~config () in
  fill db ~partitions:4 ~n:45;
  check Alcotest.int "four automatic checkpoints" 4
    (total db ~partitions:4 (fun s -> s.Smalldb.generation))

let test_partition_count_fixed () =
  let _, fs, db = mem_pdb ~partitions:4 () in
  set db ~partition:0 "k" "v";
  PDb.close db;
  match PDb.open_ ~partitions:8 fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partition count change accepted"

let test_update_checked () =
  let _, _, db = mem_pdb () in
  set db ~partition:0 "exists" "yes";
  (match
     KVDb.update_checked (PDb.partition db 1)
       ~precondition:(fun st ->
         if Hashtbl.mem st "exists" then Ok () else Error "not in this partition")
       (KV.Set ("x", "1"))
   with
  | Error "not in this partition" -> ()
  | Error e -> Alcotest.fail e
  | Ok () -> Alcotest.fail "precondition saw the wrong partition");
  check Alcotest.(option string) "nothing applied" None (get db ~partition:1 "x")

(* ------------------------------------------------------------------ *)
(* Partition independence                                               *)

let test_raising_precondition_releases () =
  let _, _, db = mem_pdb ~partitions:2 () in
  (match
     KVDb.update_checked (PDb.partition db 0)
       ~precondition:(fun _ -> failwith "precondition bug")
       (KV.Set ("a", "1"))
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the precondition's exception");
  within ~seconds:2. (fun () ->
      set db ~partition:1 "b" "2";
      set db ~partition:0 "a" "1");
  check Alcotest.(option string) "p0 updated" (Some "1") (get db ~partition:0 "a");
  check Alcotest.(option string) "p1 updated" (Some "2") (get db ~partition:1 "b");
  PDb.close db

let test_blocked_precondition_isolated () =
  let _, _, db = mem_pdb ~partitions:2 () in
  let entered = Atomic.make false and release = Atomic.make false in
  let slow =
    Thread.create
      (fun () ->
        ignore
          (KVDb.update_checked (PDb.partition db 0)
             ~precondition:(fun _ ->
               Atomic.set entered true;
               while not (Atomic.get release) do
                 Thread.delay 0.001
               done;
               Ok ())
             (KV.Set ("slow", "1"))
            : (unit, unit) result))
      ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.001
  done;
  Fun.protect
    ~finally:(fun () -> Atomic.set release true)
    (fun () -> within ~seconds:2. (fun () -> set db ~partition:1 "fast" "2"));
  Thread.join slow;
  check Alcotest.(option string) "p0 committed" (Some "1") (get db ~partition:0 "slow");
  check Alcotest.(option string) "p1 committed" (Some "2") (get db ~partition:1 "fast");
  PDb.close db

let test_disk_full_degrades () =
  let store, _, db = mem_pdb ~partitions:2 () in
  set db ~partition:0 "a" "1";
  set db ~partition:1 "b" "2";
  Mem.set_capacity store (Some (Mem.total_bytes store));
  (match set db ~partition:1 "c" "3" with
  | exception Smalldb.Degraded _ -> ()
  | () -> Alcotest.fail "expected Degraded");
  check Alcotest.(option string) "p0 answers" (Some "1") (get db ~partition:0 "a");
  check Alcotest.(option string) "p1 answers" (Some "2") (get db ~partition:1 "b");
  (* Space turns up: once the backoff expires the next update
     checkpoints its way out of degraded mode, with no reopen. *)
  Mem.set_capacity store None;
  Thread.delay 0.1;
  set db ~partition:1 "c" "3";
  set db ~partition:0 "d" "4";
  check Alcotest.(option string) "p1 recovered" (Some "3") (get db ~partition:1 "c");
  check Alcotest.(option string) "p0 updatable" (Some "4") (get db ~partition:0 "d");
  PDb.close db

(* ------------------------------------------------------------------ *)
(* Crashes                                                              *)

(* Crash sweep: workload with per-partition checkpoints; recovery must
   never lose a committed update or invent one, per partition. *)
let test_crash_sweep () =
  List.iter
    (fun mode ->
      let partitions = 3 in
      let run crash_at seed =
        let store = Mem.create_store ~seed () in
        let fs = Mem.fs store in
        let committed = Array.make partitions 0 in
        let crashed = ref false in
        (try
           let db = PDb.open_exn ~partitions fs in
           Mem.set_crash_after store ~ops:crash_at ~mode;
           for i = 0 to 17 do
             let k = i mod partitions in
             KVDb.update (PDb.partition db k)
               (KV.Set (Printf.sprintf "key%04d" i, string_of_int i));
             committed.(k) <- committed.(k) + 1;
             if i mod 6 = 5 then KVDb.checkpoint (PDb.partition db (i mod partitions))
           done;
           Mem.disarm_crash store
         with Mem.Crash -> crashed := true);
        Mem.disarm_crash store;
        (!crashed, committed, fs)
      in
      let k = ref 1 in
      let continue = ref true in
      while !continue do
        let crashed, committed, fs = run !k (8000 + !k) in
        if not crashed then continue := false
        else begin
          match PDb.open_ ~partitions fs with
          | Error e -> Alcotest.fail (Printf.sprintf "crash@%d: %s" !k e)
          | Ok db2 ->
            let sizes = partition_sizes db2 ~partitions in
            List.iteri
              (fun p n ->
                if n < committed.(p) then
                  Alcotest.fail
                    (Printf.sprintf "crash@%d: partition %d lost data (%d < %d)" !k p n
                       committed.(p));
                if n > committed.(p) + 1 then
                  Alcotest.fail
                    (Printf.sprintf "crash@%d: partition %d phantom (%d > %d)" !k p n
                       committed.(p)))
              sizes;
            PDb.close db2
        end;
        incr k
      done)
    [ Mem.Clean; Mem.Torn ]

(* Creation itself crashes at every mutating operation: the reopen
   finishes it, with every partition empty and the count recorded. *)
let test_creation_crash_sweep () =
  List.iter
    (fun mode ->
      let k = ref 1 in
      let continue = ref true in
      while !continue do
        let store = Mem.create_store ~seed:(9000 + !k) () in
        let fs = Mem.fs store in
        Mem.set_crash_after store ~ops:!k ~mode;
        (match PDb.open_exn ~partitions:3 fs with
        | db ->
          continue := false;
          Mem.disarm_crash store;
          PDb.close db
        | exception Mem.Crash -> Mem.disarm_crash store);
        (match PDb.open_ ~partitions:3 fs with
        | Error e -> Alcotest.failf "crash@%d: %s" !k e
        | Ok db ->
          check Alcotest.(list int)
            (Printf.sprintf "crash@%d: empty partitions" !k)
            [ 0; 0; 0 ] (partition_sizes db ~partitions:3);
          PDb.close db);
        check Alcotest.string
          (Printf.sprintf "crash@%d: count recorded" !k)
          "3" (Fs.read_file fs "partitions");
        incr k
      done)
    [ Mem.Clean; Mem.Torn ]

(* Model property: random updates across partitions with interleaved
   partition checkpoints and reopens always equal a per-partition model. *)
type mcmd = MSet of int * int * int | MCkpt of int | MReopen

let gen_mcmd =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun p k v -> MSet (p, k, v)) (0 -- 2) (0 -- 10) (0 -- 99));
        (2, map (fun p -> MCkpt p) (0 -- 2));
        (1, pure MReopen);
      ])

let prop_multidb_model =
  Helpers.qtest ~count:60 "multidb matches per-partition model"
    QCheck2.Gen.(list_size (0 -- 35) gen_mcmd)
    (fun cmds ->
      let partitions = 3 in
      let store = Mem.create_store ~seed:77 () in
      let fs = Mem.fs store in
      let model = Array.init partitions (fun _ -> Hashtbl.create 8) in
      let db = ref (PDb.open_exn ~partitions fs) in
      let agree () =
        List.for_all
          (fun p ->
            KVDb.query (PDb.partition !db p) (fun st ->
                Hashtbl.length st = Hashtbl.length model.(p)
                && Hashtbl.fold
                     (fun k v acc -> acc && Hashtbl.find_opt st k = Some v)
                     model.(p) true))
          (List.init partitions Fun.id)
      in
      let ok =
        List.for_all
          (fun cmd ->
            (match cmd with
            | MSet (p, k, v) ->
              let key = Printf.sprintf "k%02d" k and value = string_of_int v in
              Hashtbl.replace model.(p) key value;
              KVDb.update (PDb.partition !db p) (KV.Set (key, value))
            | MCkpt p -> KVDb.checkpoint (PDb.partition !db p)
            | MReopen ->
              PDb.close !db;
              db := PDb.open_exn ~partitions fs);
            agree ())
          cmds
      in
      PDb.close !db;
      ok)

let () =
  Helpers.run "multidb"
    [
      ("model", [ prop_multidb_model ]);
      ( "operations",
        [
          Alcotest.test_case "partition isolation" `Quick test_basic_isolation;
          Alcotest.test_case "one write per update" `Quick test_one_write_per_update;
          Alcotest.test_case "update_checked" `Quick test_update_checked;
        ] );
      ( "independence",
        [
          Alcotest.test_case "raising precondition releases" `Quick
            test_raising_precondition_releases;
          Alcotest.test_case "blocked precondition isolated" `Quick
            test_blocked_precondition_isolated;
          Alcotest.test_case "disk full degrades" `Quick test_disk_full_degrades;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "durability without checkpoints" `Quick
            test_durability_no_checkpoints;
          Alcotest.test_case "partition checkpoint reduces replay" `Quick
            test_partition_checkpoint_reduces_replay;
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "auto per-partition policy" `Quick
            test_auto_checkpoint_policy;
          Alcotest.test_case "partition count fixed" `Quick test_partition_count_fixed;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash sweep" `Quick test_crash_sweep;
          Alcotest.test_case "creation crash sweep" `Quick test_creation_crash_sweep;
        ] );
    ]
