(* The §7 extension in action: "the directories of a large file system
   ... handled by considering them as multiple separate databases for
   the purpose of writing checkpoints", with one log file per partition.

   A toy file-directory service: 4 partitions (hash of the directory
   name), each an ordinary engine with its own checkpoint and log;
   every update is one log write in its partition, and checkpoints
   happen one partition at a time — the whole database is never pickled
   in one blocking operation.

   Run with:  dune exec examples/partitioned_directory.exe *)

module P = Sdb_pickle.Pickle
module Mem = Sdb_storage.Mem_fs

module Dirs = struct
  (* directory -> (file -> size) *)
  type state = (string, (string, int) Hashtbl.t) Hashtbl.t
  type update = Create_file of string * string * int | Delete_file of string * string

  let name = "directories"
  let state_kind = `Mutable
  let codec_state = P.hashtbl P.string (P.hashtbl P.string P.int)

  let codec_update =
    P.variant ~name:"dirs.update"
      [
        P.case "create"
          (P.triple P.string P.string P.int)
          (function Create_file (d, f, s) -> Some (d, f, s) | Delete_file _ -> None)
          (fun (d, f, s) -> Create_file (d, f, s));
        P.case "delete" (P.pair P.string P.string)
          (function Delete_file (d, f) -> Some (d, f) | Create_file _ -> None)
          (fun (d, f) -> Delete_file (d, f));
      ]

  let init () = Hashtbl.create 16

  let dir_table st d =
    match Hashtbl.find_opt st d with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace st d t;
      t

  let apply st = function
    | Create_file (d, f, size) ->
      Hashtbl.replace (dir_table st d) f size;
      st
    | Delete_file (d, f) ->
      (match Hashtbl.find_opt st d with
      | Some t -> Hashtbl.remove t f
      | None -> ());
      st
end

module Db = Smalldb.Make (Dirs)

let partitions = 4
let partition_of dir = Hashtbl.hash dir mod partitions

let count_files db dir =
  Db.query (Db.Partitioned.partition db (partition_of dir)) (fun st ->
      match Hashtbl.find_opt st dir with Some t -> Hashtbl.length t | None -> 0)

let per_partition db f =
  List.init partitions (fun k -> f k (Db.stats (Db.Partitioned.partition db k)))

let () =
  let store = Mem.create_store ~seed:7 () in
  let fs = Mem.fs store in
  (* Each partition checkpoints itself every 50 of its own updates: the
     incremental version of the paper's nightly checkpoint. *)
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 50 } in
  let db = Db.Partitioned.open_exn ~config ~partitions fs in

  (* Populate a few hundred files across directories. *)
  let rng = Sdb_util.Rng.create ~seed:8 in
  let update dir u = Db.update (Db.Partitioned.partition db (partition_of dir)) u in
  for i = 0 to 399 do
    let dir = Printf.sprintf "/home/user%d" (i mod 7) in
    let file = Printf.sprintf "file%03d.txt" i in
    update dir (Dirs.Create_file (dir, file, Sdb_util.Rng.int rng 100_000))
  done;
  update "/home/user3" (Dirs.Delete_file ("/home/user3", "file003.txt"));

  (* Enquiries hit only the partition that owns the directory. *)
  Printf.printf "/home/user3 holds %d files\n" (count_files db "/home/user3");
  List.iter print_endline
    (per_partition db (fun k s ->
         Printf.sprintf "  partition %d: %d updates, checkpoint v%d, %d log entries" k
           s.Smalldb.lsn s.Smalldb.generation s.Smalldb.log_entries));

  (* Restart: each partition replays only its own log. *)
  Db.Partitioned.close db;
  let db2 = Db.Partitioned.open_exn ~config ~partitions fs in
  let sum f = List.fold_left ( + ) 0 (per_partition db2 (fun _ s -> f s)) in
  Printf.printf "after restart: replayed %d entries (of %d ever committed)\n"
    (sum (fun s -> s.Smalldb.recovery.Smalldb.replayed))
    (sum (fun s -> s.Smalldb.lsn));
  Printf.printf "/home/user3 still holds %d files\n" (count_files db2 "/home/user3");
  Db.Partitioned.close db2
