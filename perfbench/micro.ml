(* Layers with no seam to wrap, timed by calling their public functions
   on the inputs the workload generates: the same names, values and
   zipf key stream, and a state of the workload's size. *)

open Common
module Data = Sdb_nameserver.Ns_data
module P = Sdb_pickle.Pickle
module Wal = Sdb_wal.Wal
module Vlock = Sdb_vlock.Vlock
module Mem_fs = Sdb_storage.Mem_fs
module Rng = Sdb_util.Rng

let batches = 21

(* Median over [batches] batches of [per] calls of [f i] (i counts
   across batches), in ns per call. *)
let ns_per_op ~per f =
  let k = ref 0 in
  let one () =
    let t0 = now_ns () in
    for _ = 1 to per do
      f !k;
      incr k
    done;
    Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int per
  in
  ignore (one ());
  median (Array.init batches (fun _ -> one ()))

(* Median wall time of [reps] runs of [f], in ms. *)
let ms_per_run ~reps f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6))

let run ~names ~tail ~seed =
  let state =
    let s = ref Data.empty_pnode in
    for i = 0 to names - 1 do
      s := Data.pset_value !s (path_of i) (Some (value_of ~idx:i ~writer:'p' ~seq:0))
    done;
    !s
  in
  let rng = Rng.create ~seed in
  let keys = Array.init 100_000 (fun _ -> Rng.zipf rng ~n:names ~theta:0.9) in
  let paths = Array.map path_of keys in
  let key i = paths.(i mod Array.length paths) in
  let updates =
    Array.mapi
      (fun j idx ->
        Ns.Set_value (path_of idx, Some (value_of ~idx ~writer:'0' ~seq:(j + 1))))
      keys
  in
  let upd i = updates.(i mod Array.length updates) in
  let payloads = Array.map (P.encode Ns.codec_update) updates in
  let sink = ref None in
  let lookup_ns =
    ns_per_op ~per:20_000 (fun i ->
        sink := Option.bind (Data.pfind state (key i)) (fun n -> n.Data.pvalue))
  in
  let applied = ref state in
  let apply_ns =
    ns_per_op ~per:5_000 (fun i ->
        match upd i with
        | Ns.Set_value (p, v) -> applied := Data.pset_value !applied p v
        | _ -> ())
  in
  let buf = Buffer.create 256 in
  let encode_ns =
    ns_per_op ~per:20_000 (fun i ->
        Buffer.clear buf;
        P.encode_into buf Ns.codec_update (upd i))
  in
  let update_bytes =
    float_of_int (Array.fold_left (fun a p -> a + String.length p) 0 payloads)
    /. float_of_int (Array.length payloads)
  in
  let state_blob = P.encode Data.codec_pnode state in
  let state_encode_ms = ms_per_run ~reps:5 (fun () -> P.encode Data.codec_pnode state) in
  let state_decode_ms = ms_per_run ~reps:5 (fun () -> P.decode Data.codec_pnode state_blob) in
  (* WAL framing and append into memory, no sync: the log's own cost
     per update without the device. *)
  let fingerprint = P.fingerprint Ns.codec_update in
  let fs = Mem_fs.fs (Mem_fs.create_store ()) in
  let w = Wal.Writer.create fs "logfile1" ~fingerprint in
  let len0 = Wal.Writer.length w in
  let appended = ref 0 in
  let append_ns =
    ns_per_op ~per:2_000 (fun i ->
        ignore (Wal.Writer.append w payloads.(i mod Array.length payloads) : int);
        incr appended)
  in
  let frame_ns =
    ns_per_op ~per:20_000 (fun i ->
        Buffer.clear buf;
        Wal.Writer.frame_into buf payloads.(i mod Array.length payloads))
  in
  let wal_bytes = float_of_int (Wal.Writer.length w - len0) /. float_of_int !appended in
  Wal.Writer.close w;
  (* Replay: the restart tail's length in entries, folded from memory. *)
  let replay_entries = if tail > 0 then tail else 40_000 in
  let log = Wal.Writer.create fs "logfile2" ~fingerprint in
  for i = 0 to replay_entries - 1 do
    ignore (Wal.Writer.append log payloads.(i mod Array.length payloads) : int)
  done;
  Wal.Writer.sync log;
  Wal.Writer.close log;
  let replay_ms =
    ms_per_run ~reps:5 (fun () ->
        match
          Wal.Reader.fold fs "logfile2" ~fingerprint ~policy:Wal.Reader.Stop_at_damage
            ~init:0 ~f:(fun n _ -> n + 1)
        with
        | Ok (n, _) when n = replay_entries -> n
        | Ok _ | Error _ -> failwith "replay read a different number of entries")
  in
  let lock = Vlock.create ~name:"bench" () in
  let shared_ns =
    ns_per_op ~per:20_000 (fun _ ->
        Vlock.acquire lock Vlock.Shared;
        Vlock.release lock Vlock.Shared)
  in
  let upgrade_ns =
    ns_per_op ~per:20_000 (fun _ ->
        Vlock.acquire lock Vlock.Update;
        Vlock.upgrade lock;
        Vlock.release lock Vlock.Exclusive)
  in
  ignore (Sys.opaque_identity !sink);
  emit
    [
      ("nameserver.lookup_ns", N lookup_ns);
      ("nameserver.apply_ns", N apply_ns);
      ("pickle.update_encode_ns", N encode_ns);
      ("pickle.update_bytes", N update_bytes);
      ("pickle.state_encode_ms", N state_encode_ms);
      ("pickle.state_decode_ms", N state_decode_ms);
      ("pickle.state_bytes", I (String.length state_blob));
      ("wal.append_ns", N append_ns);
      ("wal.frame_ns", N frame_ns);
      ("wal.bytes_per_update", N wal_bytes);
      ("wal.replay_ms", N replay_ms);
      ("vlock.shared_ns", N shared_ns);
      ("vlock.upgrade_ns", N upgrade_ns);
    ]
