(* The benchmark's program; run.py drives it.

   pb populate     --dir D --names N [--tail T] --seed S
   pb probe        --socket S --t0-ns T [--checkpoint]
   pb load         --socket S --names N --read-fraction F --seed S
                   --rate R [--warm-s W] --open-s A --cap-s B [--tail T]
                   [--spans FILE --update-only U]
   pb micro        --names N [--tail T] --seed S
   pb serve-traced --dir D --socket S --spans FILE

   Each prints one JSON object on stdout (serve-traced writes its spans
   to FILE when it receives SIGTERM). *)

open Common
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Rng = Sdb_util.Rng

(* The store a run starts from: every name bound once by the populating
   writer, checkpointed, then [tail] zipf-keyed updates left in the log
   for restart to replay.  The log-size checkpoint policy is off here so
   the tail stays in the log. *)
let populate ~dir ~names ~tail ~seed =
  let t0 = now_s () in
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  let ns = Ns.open_exn ~config:{ Smalldb.default_config with policy = Smalldb.Manual } fs in
  let db = Ns.db ns in
  let batch lo hi f = Ns.Db.update_batch db (List.init (hi - lo) (fun k -> f (lo + k))) in
  let rec fill lo =
    if lo < names then begin
      let hi = min names (lo + 5000) in
      batch lo hi (fun i -> Ns.Set_value (path_of i, Some (value_of ~idx:i ~writer:'p' ~seq:0)));
      fill hi
    end
  in
  fill 0;
  Ns.checkpoint ns;
  let rng = Rng.create ~seed:(seed + 31337) in
  let rec tail_from seq =
    if seq <= tail then begin
      let hi = min tail (seq + 999) in
      batch seq (hi + 1) (fun s ->
          let idx = Rng.zipf rng ~n:names ~theta:0.9 in
          Ns.Set_value (path_of idx, Some (value_of ~idx ~writer:'t' ~seq:s)));
      tail_from (hi + 1)
    end
  in
  tail_from 1;
  let digest = Digest.to_hex (Ns.digest ns) and count = Ns.count_nodes ns in
  let s = Ns.stats ns in
  Ns.close ns;
  emit
    [
      ("populate_s", N (now_s () -. t0));
      ("digest", S digest);
      ("count", I count);
      ("log_bytes", I s.Smalldb.log_bytes);
      ("live_bytes", I (live_bytes names));
    ]

(* Wait for a server started at [t0_ns] to answer a ping; then read its
   digest and size, and time one checkpoint if asked. *)
let probe ~socket ~t0_ns ~checkpoint =
  let give_up = now_s () +. 120.0 in
  let rec connect () =
    match Rpc.Socket.connect ~path:socket with
    | tr -> (
      let c = Proto.Client.create tr in
      match Proto.Client.ping c with
      | lsn -> (c, lsn)
      | exception Rpc.Rpc_error _ when now_s () < give_up ->
        Proto.Client.close c;
        connect ())
    | exception Rpc.Rpc_error _ when now_s () < give_up ->
      Unix.sleepf 0.0002;
      connect ()
  in
  let c, lsn = connect () in
  let restart_s = Int64.to_float (Int64.sub (now_ns ()) t0_ns) /. 1e9 in
  let digest = Digest.to_hex (Proto.Client.digest c) in
  let count = Proto.Client.count_nodes c in
  let checkpoint_s =
    if checkpoint then begin
      let t = now_s () in
      Proto.Client.checkpoint c;
      now_s () -. t
    end
    else Float.nan
  in
  Proto.Client.close c;
  emit
    [
      ("restart_s", N restart_s);
      ("lsn", I lsn);
      ("digest", S digest);
      ("count", I count);
      ("checkpoint_s", N checkpoint_s);
    ]

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let dir = ref "" and socket = ref "" and spans = ref "" in
  let names = ref 0 and tail = ref 0 and seed = ref 1 and t0_ns = ref 0 in
  let checkpoint = ref false and read_fraction = ref 0.0 and rate = ref 1.0 in
  let warm_s = ref 0.0 and open_s = ref 0.0 and cap_s = ref 0.0 and update_only = ref 0 in
  let spec =
    [
      ("--dir", Arg.Set_string dir, "store directory");
      ("--socket", Arg.Set_string socket, "server socket");
      ("--spans", Arg.Set_string spans, "span output file (enables tracing)");
      ("--names", Arg.Set_int names, "names in the store");
      ("--tail", Arg.Set_int tail, "updates left in the log");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--t0-ns", Arg.Set_int t0_ns, "monotonic ns the server was started at");
      ("--checkpoint", Arg.Set checkpoint, "time one checkpoint");
      ("--read-fraction", Arg.Set_float read_fraction, "share of lookups");
      ("--rate", Arg.Set_float rate, "open-loop ops/s");
      ("--warm-s", Arg.Set_float warm_s, "unmeasured open-loop seconds first");
      ("--open-s", Arg.Set_float open_s, "open-loop seconds");
      ("--cap-s", Arg.Set_float cap_s, "closed-loop seconds");
      ("--update-only", Arg.Set_int update_only, "updates in the fsync cross-check window");
    ]
  in
  parse_args spec ("pb " ^ cmd);
  let spans_file = if String.equal !spans "" then None else Some !spans in
  match cmd with
  | "populate" -> populate ~dir:!dir ~names:!names ~tail:!tail ~seed:!seed
  | "probe" -> probe ~socket:!socket ~t0_ns:(Int64.of_int !t0_ns) ~checkpoint:!checkpoint
  | "load" ->
    Load.run ~socket:!socket ~names:!names ~read_fraction:!read_fraction ~tail:!tail
      ~seed:!seed ~rate:!rate ~warm_s:!warm_s ~open_s:!open_s ~cap_s:!cap_s ~spans_file
      ~update_only_n:!update_only
  | "micro" -> Micro.run ~names:!names ~tail:!tail ~seed:!seed
  | "serve-traced" ->
    Traced.serve ~dir:!dir ~socket:!socket ~spans_file:!spans ~capacity:1_000_000
  | _ ->
    prerr_endline "usage: pb populate|probe|load|micro|serve-traced [options]";
    exit 2
