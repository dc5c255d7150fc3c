(* The load generator: one process, two client threads, each with its
   own connection to the server.

   An unmeasured open-loop warm-up comes first.  Phase 1 is open loop
   (Loadgen's Poisson arrivals and zipf keys, latency charged from the
   intended send time).  Phase 2 is closed loop over lookups alone:
   each thread sends its next lookup when the previous reply arrives,
   which measures capacity.  (With the mix's updates in it, a
   connection waiting on a log fsync stalls half the load, and the
   figure follows the disk's slow minutes.)  With tracing on, an
   update-only window bracketed by two [metrics] calls follows, so the
   analysis can hold the wrapper-counted log fsyncs against
   sdb_wal_syncs_total.

   Every reply is checked: a lookup must return a value written for
   the name it asked about, by a known writer, with a sequence number
   that writer has reached.  A wrong reply or a raising call counts as
   failed. *)

open Common
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Loadgen = Sdb_loadgen.Loadgen
module Histogram = Sdb_util.Histogram
module Rng = Sdb_util.Rng

let threads = 2
let lookup = 0
let update = 1

exception Wrong_reply of string

type conn = {
  client : Proto.Client.t;
  meth : int ref;  (** method of the call in flight, for the span *)
  calls : int ref;
}

(* Client-side spans: from the request's [send] to the reply's [recv]
   on the wrapped transport, so client stubs' own encoding is outside. *)
let wrap_client spans ~thread ~meth ~calls (tr : Rpc.Transport.t) =
  let t0 = ref 0 and out = ref 0 in
  {
    tr with
    Rpc.Transport.send =
      (fun m ->
        t0 := Spans.now ();
        out := String.length m;
        tr.Rpc.Transport.send m);
    recv =
      (fun () ->
        let r = tr.Rpc.Transport.recv () in
        incr calls;
        Spans.record spans ~kind:Spans.call ~t0:!t0 ~t1:(Spans.now ()) ~thread
          ~req:!calls ~arg:!meth ~arg2:(!out + String.length r);
        r);
  }

let connect ~socket ~spans thread =
  let tr = Rpc.Socket.connect ~path:socket in
  let meth = ref 0 and calls = ref 0 in
  let tr =
    match spans with
    | Some s -> wrap_client s ~thread ~meth ~calls tr
    | None -> tr
  in
  { client = Proto.Client.create tr; meth; calls }

(* Highest sequence number each writer has issued; a lookup may return
   any value up to it.  Population writes seq 0, the restart tail
   1..tail. *)
let issued = Array.init threads (fun _ -> Atomic.make 0)

let check_value ~tail idx = function
  | None -> raise (Wrong_reply (Printf.sprintf "name %d unbound" idx))
  | Some v -> (
    match parse_value v with
    | None -> raise (Wrong_reply (Printf.sprintf "name %d: malformed value" idx))
    | Some s ->
      let known =
        match s.s_writer with
        | 'p' -> s.s_seq = 0
        | 't' -> s.s_seq >= 1 && s.s_seq <= tail
        | ('0' | '1') as w ->
          let i = Char.code w - Char.code '0' in
          s.s_seq >= 1 && s.s_seq <= Atomic.get issued.(i)
        | _ -> false
      in
      if s.s_idx <> idx then
        raise (Wrong_reply (Printf.sprintf "name %d answered with name %d" idx s.s_idx))
      else if not known then
        raise (Wrong_reply (Printf.sprintf "name %d: unknown writer or sequence" idx)))

let exec_op ~tail conns ~thread op =
  let c = conns.(thread) in
  match op with
  | Loadgen.Read idx ->
    c.meth := lookup;
    check_value ~tail idx (Proto.Client.lookup c.client (path_of idx))
  | Loadgen.Write (idx, _) ->
    c.meth := update;
    let seq = Atomic.fetch_and_add issued.(thread) 1 + 1 in
    let writer = Char.chr (Char.code '0' + thread) in
    Proto.Client.set_value c.client (path_of idx) (Some (value_of ~idx ~writer ~seq))

let kind_of = function Loadgen.Read _ -> lookup | Loadgen.Write _ -> update

type failures = { wrong : int Atomic.t; raised : int Atomic.t; first : string option ref }

let failures = { wrong = Atomic.make 0; raised = Atomic.make 0; first = ref None }

let note_failure e =
  (match e with
  | Wrong_reply _ -> Atomic.incr failures.wrong
  | _ -> Atomic.incr failures.raised);
  if Option.is_none !(failures.first) then failures.first := Some (Printexc.to_string e)

(* Latencies per thread and kind; a thread records only into its own. *)
let new_hists () = Array.init threads (fun _ -> Array.init 2 (fun _ -> Histogram.create ()))

let merged hists kind =
  let h = Histogram.create () in
  Array.iter (fun per -> Histogram.merge_into h per.(kind)) hists;
  h

let ms h p = 1000.0 *. percentile_or_nan h p

(* The open-loop schedule and mix are Loadgen's (its arrivals and
   gen_op, drawn from the same per-thread generators Loadgen.run uses);
   the wait for each intended instant sleeps until shortly before it
   and spins the rest, so the generator's own wake-up delay is not
   charged to the server. *)
let spin_s = 0.00015

let wait_until t =
  let rec go () =
    let ahead = t -. now_s () in
    if ahead > 2.0 *. spin_s then begin
      Unix.sleepf (ahead -. spin_s);
      go ()
    end
    else if ahead > 0.0 then begin
      Thread.yield ();
      go ()
    end
  in
  go ()

let open_loop ~tail conns (cfg : Loadgen.config) =
  let hists = new_hists () in
  let offered = Array.make threads 0 and errors = Array.make threads 0 in
  let lags = Array.init threads (fun _ -> Histogram.create ()) in
  let start = now_s () +. 0.05 in
  let worker i () =
    let rng = Rng.create ~seed:(cfg.Loadgen.seed + (7919 * i)) in
    let schedule =
      Loadgen.arrivals cfg.Loadgen.schedule rng
        ~rate:(cfg.Loadgen.rate /. float_of_int threads)
        ~duration_s:cfg.Loadgen.duration_s
    in
    Array.iter
      (fun offset ->
        let intended = start +. offset in
        let op = Loadgen.gen_op cfg rng in
        wait_until intended;
        Histogram.record lags.(i) (now_s () -. intended);
        offered.(i) <- offered.(i) + 1;
        (try exec_op ~tail conns ~thread:i op
         with e ->
           note_failure e;
           errors.(i) <- errors.(i) + 1);
        let latency = now_s () -. intended in
        Histogram.record hists.(i).(kind_of op) latency)
      schedule
  in
  let cpu0 = cpu_s () in
  List.iter Thread.join (List.init threads (fun i -> Thread.create (worker i) ()));
  let elapsed = now_s () -. start in
  let cpu = cpu_s () -. cpu0 in
  let lk = merged hists lookup and up = merged hists update in
  let lag = Array.fold_left Histogram.merge (Histogram.create ()) lags in
  let sum a = Array.fold_left ( + ) 0 a in
  [
    ("open_offered", I (sum offered));
    ("open_errors", I (sum errors));
    ("open_elapsed_s", N elapsed);
    ("open_lookups", I (Histogram.count lk));
    ("open_updates", I (Histogram.count up));
    ("open_lookup_p50_ms", N (ms lk 50.0));
    ("open_lookup_p99_ms", N (ms lk 99.0));
    ("open_update_p50_ms", N (ms up 50.0));
    ("open_update_p99_ms", N (ms up 99.0));
    ("open_max_lag_ms", N (1000.0 *. Histogram.max lag));
    ("open_lag_p50_ms", N (ms lag 50.0));
    ("open_cpu_s", N cpu);
  ]

let closed_loop ~tail conns (cfg : Loadgen.config) ~seconds =
  let lat = Array.init threads (fun _ -> Histogram.create ()) in
  let ops = Array.make threads 0 and errs = Array.make threads 0 in
  (* Completions per thread and whole second of the phase. *)
  let secs = int_of_float seconds in
  let done_in = Array.init threads (fun _ -> Array.make (secs + 1) 0) in
  let start = now_s () in
  let stop_at = start +. seconds in
  let worker i () =
    let rng = Rng.create ~seed:(cfg.Loadgen.seed + 104729 + (7919 * i)) in
    while now_s () < stop_at do
      let op = Loadgen.gen_op cfg rng in
      let t0 = now_s () in
      (try exec_op ~tail conns ~thread:i op
       with e ->
         note_failure e;
         errs.(i) <- errs.(i) + 1);
      let t1 = now_s () in
      Histogram.record lat.(i) (t1 -. t0);
      let b = min secs (int_of_float (t1 -. start)) in
      done_in.(i).(b) <- done_in.(i).(b) + 1;
      ops.(i) <- ops.(i) + 1
    done
  in
  let cpu0 = cpu_s () in
  List.iter Thread.join (List.init threads (fun i -> Thread.create (worker i) ()));
  let elapsed = now_s () -. start in
  let cpu = cpu_s () -. cpu0 in
  let all = Array.fold_left Histogram.merge (Histogram.create ()) lat in
  let n = Array.fold_left ( + ) 0 ops and e = Array.fold_left ( + ) 0 errs in
  [
    ("cap_ops", I n);
    ("cap_errors", I e);
    ("cap_elapsed_s", N elapsed);
    (* Median over the phase's whole seconds: a few slow seconds of a
       shared host move one bucket, not the figure. *)
    ( "cap_ops_s",
      N
        (median
           (Array.init (max 1 secs) (fun b ->
                float_of_int (Array.fold_left (fun a per -> a + per.(b)) 0 done_in)))) );
    ("cap_p50_ms", N (ms all 50.0));
    ("cap_p99_ms", N (ms all 99.0));
    ("cap_cpu_s", N cpu);
  ]

let wal_syncs conn =
  let text = Proto.Client.metrics conn.client in
  let prefix = "sdb_wal_syncs_total " in
  let n = String.length prefix in
  List.fold_left
    (fun acc line ->
      if String.length line > n && String.equal (String.sub line 0 n) prefix then
        int_of_float (float_of_string (String.trim (String.sub line n (String.length line - n))))
      else acc)
    (-1) (String.split_on_char '\n' text)

(* [updates] set_values split over both threads, closed loop. *)
let update_only ~tail conns ~names ~updates ~seed =
  let per = updates / threads in
  let worker i () =
    let rng = Rng.create ~seed:(seed + 15485863 + i) in
    for _ = 1 to per do
      let idx = Rng.int rng names in
      try exec_op ~tail conns ~thread:i (Loadgen.Write (idx, "")) with e -> note_failure e
    done
  in
  conns.(0).meth := Spans.meth_code "metrics";
  let before = wal_syncs conns.(0) in
  List.iter Thread.join (List.init threads (fun i -> Thread.create (worker i) ()));
  conns.(0).meth := Spans.meth_code "metrics";
  let after = wal_syncs conns.(0) in
  [ ("uo_updates", I (per * threads)); ("uo_wal_syncs", I (after - before)) ]

let run ~socket ~names ~read_fraction ~tail ~seed ~rate ~warm_s ~open_s ~cap_s ~spans_file
    ~update_only_n =
  let spans = Option.map (fun _ -> Spans.create 600_000) spans_file in
  let conns = Array.init threads (connect ~socket ~spans) in
  let cfg =
    {
      Loadgen.default with
      rate;
      duration_s = open_s;
      threads;
      keys = names;
      read_fraction;
      seed;
    }
  in
  let fields = ref [] in
  let add l = fields := !fields @ l in
  (* Unmeasured open-loop load first, so the measured phases start with
     the server's heap and caches past their post-start state. *)
  if warm_s > 0.0 then begin
    let warm = open_loop ~tail conns { cfg with duration_s = warm_s; seed = seed + 1 } in
    add [ ("warm_offered", List.assoc "open_offered" warm) ]
  end;
  if open_s > 0.0 then add (open_loop ~tail conns cfg);
  if cap_s > 0.0 then
    add (closed_loop ~tail conns { cfg with read_fraction = 1.0 } ~seconds:cap_s);
  if update_only_n > 0 then add (update_only ~tail conns ~names ~updates:update_only_n ~seed);
  let c0 = conns.(0) in
  c0.meth := Spans.meth_code "digest";
  let digest = Digest.to_hex (Proto.Client.digest c0.client) in
  c0.meth := Spans.meth_code "count_nodes";
  let count = Proto.Client.count_nodes c0.client in
  Array.iter (fun c -> Proto.Client.close c.client) conns;
  (match (spans, spans_file) with
  | Some s, Some f -> Spans.dump s f
  | _ -> ());
  add
    [
      ("wrong", I (Atomic.get failures.wrong));
      ("raised", I (Atomic.get failures.raised));
      ("first_failure", S (Option.value !(failures.first) ~default:""));
      ("digest", S digest);
      ("count", I count);
    ];
  emit !fields
