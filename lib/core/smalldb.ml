module Pickle = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Wal = Sdb_wal.Wal
module Vlock = Sdb_vlock.Vlock
module Epoch = Sdb_epoch.Epoch
module Store = Sdb_checkpoint.Checkpoint_store
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace

(* Engine-wide metrics.  Shared across every [Make] instance: series
   are process-level, like the registry itself.  The span taxonomy
   (update.verify/log/apply, checkpoint, recovery.restore/replay) is a
   public interface documented in DESIGN.md. *)

let m_updates =
  Metrics.counter "sdb_updates_total" ~help:"Updates committed by the engine."

let m_group_size =
  Metrics.histogram "sdb_group_commit_size"
    ~help:"Updates committed per group flush (amortization factor of the \
           shared fsync; sdb_wal_syncs_total / sdb_updates_total is the \
           fsyncs-per-update ratio)."

let phase_hist phase =
  Metrics.histogram "sdb_update_phase_seconds"
    ~help:"Per-update phase latency (the paper's E2 breakdown)."
    ~labels:[ ("phase", phase) ]

let m_phase_verify = phase_hist "verify"
let m_phase_pickle = phase_hist "pickle"
let m_phase_log = phase_hist "log"
let m_phase_apply = phase_hist "apply"

let m_checkpoints =
  Metrics.counter "sdb_checkpoints_total" ~help:"Checkpoints written."

let ckpt_hist phase =
  Metrics.histogram "sdb_checkpoint_phase_seconds"
    ~help:"Checkpoint phase latency." ~labels:[ ("phase", phase) ]

let m_ckpt_pickle = ckpt_hist "pickle"
let m_ckpt_write = ckpt_hist "write"

let m_recoveries =
  Metrics.counter "sdb_recoveries_total" ~help:"Successful restarts from disk."

let recovery_hist phase =
  Metrics.histogram "sdb_recovery_phase_seconds"
    ~help:"Recovery phase latency (the paper's E4 breakdown)."
    ~labels:[ ("phase", phase) ]

let m_recovery_restore = recovery_hist "restore"
let m_recovery_replay = recovery_hist "replay"

let m_scrub_runs =
  Metrics.counter "sdb_scrub_runs_total" ~help:"Integrity scrubs completed."

let m_scrub_damage =
  Metrics.counter "sdb_scrub_damage_found_total"
    ~help:"Damaged ranges found by scrubs."

let m_scrub_repairs =
  Metrics.counter "sdb_scrub_repairs_total"
    ~help:"Self-repairs: fresh checkpoints written over detected damage."

let m_degraded =
  Metrics.gauge "sdb_degraded"
    ~help:"1 while the engine is in degraded (read-only) mode."

let m_degraded_recoveries =
  Metrics.counter "sdb_degraded_recoveries_total"
    ~help:"Automatic exits from degraded mode (space reclaimed)."

(* Concurrency-sanitizer exposure (pull-style: the sanitizer keeps its
   own tallies so the zero-overhead-when-disabled property holds; we
   bridge deltas into the registry only when someone renders). *)
let () =
  let m_san_checks =
    Metrics.counter "sdb_san_checks_total"
      ~help:"Lock-discipline checks processed by the sanitizer."
  and m_san_violations =
    Metrics.counter "sdb_san_violations_total"
      ~help:"Lock-discipline violations the sanitizer raised."
  and m_san_depth =
    Metrics.gauge "sdb_san_max_lock_depth"
      ~help:"Deepest per-thread lock hold stack the sanitizer observed."
  in
  let pushed_checks = ref 0 and pushed_violations = ref 0 in
  Metrics.register_collector ~name:"sdb_check" (fun () ->
      let s = Sdb_check.stats () in
      Metrics.add m_san_checks (max 0 (s.Sdb_check.checks - !pushed_checks));
      pushed_checks := max !pushed_checks s.Sdb_check.checks;
      Metrics.add m_san_violations
        (max 0 (s.Sdb_check.violations - !pushed_violations));
      pushed_violations := max !pushed_violations s.Sdb_check.violations;
      Metrics.set_gauge m_san_depth (float_of_int s.Sdb_check.max_lock_depth))

module type APP = sig
  type state
  type update

  val name : string
  val state_kind : [ `Persistent | `Mutable ]
  val codec_state : state Pickle.t
  val codec_update : update Pickle.t
  val init : unit -> state
  val apply : state -> update -> state
end

type checkpoint_policy =
  | Manual
  | Every_n_updates of int
  | Log_bytes_exceeds of int

type config = {
  retain_previous : bool;
  policy : checkpoint_policy;
  log_recovery : [ `Stop_at_damage | `Skip_damaged ];
  hard_error_fallback : bool;
  archive_logs : bool;
}

let default_config =
  {
    retain_previous = false;
    policy = Manual;
    log_recovery = `Stop_at_damage;
    hard_error_fallback = true;
    archive_logs = false;
  }

type phase_times = {
  verify_s : float;
  pickle_s : float;
  log_s : float;
  apply_s : float;
  ckpt_pickle_s : float;
  ckpt_write_s : float;
  restore_s : float;
  replay_s : float;
}

type recovery_info = {
  replayed : int;
  skipped_damaged : int;
  log_tail_discarded : bool;
  used_previous_generation : bool;
  completed_switch : bool;
  removed_files : string list;
}

type stats = {
  generation : int;
  lsn : int;
  updates_committed : int;
  checkpoints_written : int;
  log_entries : int;
  log_bytes : int;
  phase : phase_times;
  recovery : recovery_info;
}

exception Poisoned
exception Closed

exception Degraded of string

type health = [ `Healthy | `Degraded of string | `Poisoned ]

type scrub_finding = { file : string; offset : int; reason : string }

type scrub_report = {
  scanned_files : string list;
  findings : scrub_finding list;
  replay_consistent : bool;
  repaired : bool;
  scrub_duration_s : float;
}

(* Backoff for the two space-reclaim retry loops (degraded exit and the
   auto-checkpoint): doubles per failed attempt, capped. *)
let backoff_initial = 0.02
let backoff_max = 5.0

let fresh_recovery =
  {
    replayed = 0;
    skipped_damaged = 0;
    log_tail_discarded = false;
    used_previous_generation = false;
    completed_switch = false;
    removed_files = [];
  }

module Make (App : APP) = struct
  type meta = { app : string; base_lsn : int }

  let codec_meta =
    Pickle.record2 "smalldb.checkpoint_meta"
      (Pickle.field "app" Pickle.string (fun m -> m.app))
      (Pickle.field "base_lsn" Pickle.int (fun m -> m.base_lsn))
      (fun app base_lsn -> { app; base_lsn })

  let codec_blob = Pickle.pair codec_meta App.codec_state
  let update_fp = Pickle.fingerprint App.codec_update

  (* Picks the read route and what a checkpoint snapshots. *)
  let persistent =
    match App.state_kind with `Persistent -> true | `Mutable -> false

  (* One group-commit participant: an update (or a whole batch) that
     verified and pickled under the Update lock, joined the forming
     group, and parks until the leader settles it — or the leader's
     own update, prepared at the seal. *)
  type member_outcome =
    | M_pending
    | M_committed of int  (* the member's first LSN *)
    | M_failed of exn

  type member = {
    m_updates : App.update list;
    m_payloads : string list;
    mutable m_outcome : member_outcome;
  }

  type group = {
    mutable g_members : member list;  (* reverse join order *)
    g_ticket : int;  (* formation order, in which groups commit *)
  }

  type t = {
    fs : Fs.t;
    config : config;
    lock : Vlock.t;
    ckpt_mutex : Sdb_check.Mu.t;  (* serializes checkpoints and scrubs *)
    (* Group-commit coordinator: the forming group (joined under the
       Update lock), the commit slot serializing leaders in formation
       order (tickets: groups opened, and the one whose turn it is), and
       the condition variable members park on — all guarded by
       [gc_mutex].  The cells are [Guarded] so the sanitizer checks the
       contract on every access. *)
    gc_mutex : Sdb_check.Mu.t;
    gc_cond : Condition.t;
    gc_forming : group option Sdb_check.Guarded.t;
    gc_opened : int Sdb_check.Guarded.t;
    gc_serving : int Sdb_check.Guarded.t;
    (* What the last group cost and how many members it carried: the
       next leader's linger bound and target.  Touched only by the
       commit-slot holder. *)
    mutable last_flush_s : float;
    mutable last_joined : int;
    (* reusable pickle scratch; guarded by the Update lock *)
    pickle_buf : Buffer.t;
    (* Bytes of the last checkpoint read or written, which sizes the
       next one's pickle buffer; guarded by [ckpt_mutex] once open. *)
    mutable ckpt_bytes : int;
    (* A persistent state's committed versions, published at the end of
       every Exclusive window for lock-free enquiries; unused for a
       mutable state. *)
    epoch : App.state Epoch.t;
    mutable state : App.state;
    mutable wal : Wal.Writer.t;
    mutable generation : int;
    mutable lsn : int;
    mutable committed : int;
    mutable since_ckpt : int;  (* updates since the last checkpoint *)
    mutable ckpts : int;
    mutable closed : bool;
    mutable poisoned : bool;
    mutable degraded_reason : string option;
    mutable degraded_retry_at : float;
    mutable degraded_backoff : float;
    mutable auto_ckpt_retry_at : float;
    mutable auto_ckpt_backoff : float;
    mutable last_scrub : scrub_report option;
    mutable scrub_stop : bool;
    mutable scrub_thread : Thread.t option;
    mutable recovery : recovery_info;
    (* cumulative phase timings *)
    mutable t_verify : float;
    mutable t_pickle : float;
    mutable t_log : float;
    mutable t_apply : float;
    mutable t_ckpt_pickle : float;
    mutable t_ckpt_write : float;
    mutable t_restore : float;
    mutable t_replay : float;
    subs_mutex : Sdb_check.Mu.t;
    mutable subscribers : (int * (int -> App.update -> unit)) list;
    mutable next_sub : int;
  }

  type subscription = int

  let now = Unix.gettimeofday

  let check_usable t =
    if t.closed then raise Closed;
    if t.poisoned then raise Poisoned

  (* Swing the published snapshot to the state just applied.  Must run
     inside the Exclusive window (single writer, before release): the
     pointer swing is then ordered with the commit, so a reader never
     observes version N+1 before version N. *)
  let publish_epoch t =
    if persistent then Epoch.publish t.epoch ~lsn:t.lsn t.state
  [@@sdb.requires exclusive]

  let health t : health =
    if t.poisoned then `Poisoned
    else match t.degraded_reason with
      | Some reason -> `Degraded reason
      | None -> `Healthy

  let enter_degraded t reason =
    if t.degraded_reason = None then begin
      t.degraded_reason <- Some reason;
      t.degraded_backoff <- backoff_initial;
      t.degraded_retry_at <- Unix.gettimeofday () +. backoff_initial;
      Metrics.set_gauge m_degraded 1.
    end

  (* ---------------------------------------------------------------- *)
  (* Opening                                                           *)

  let make fs config ~ckpt_bytes state wal generation lsn recovery =
    let gc_mutex = Sdb_check.Mu.make ("smalldb.gc:" ^ App.name) in
    {
      fs;
      config;
      lock = Vlock.create ~name:App.name ();
      (* `Vlock kind: the checkpoint token only serializes checkpointers
         and scrubbers against each other and is held across deliberate
         I/O (the checkpoint write and the log tail blit), so it is
         exempt from the no-blocking-under-mutex rule — at runtime (the
         sanitizer's I/O assert filters on kind) and statically. *)
      ckpt_mutex = Sdb_check.Mu.make ~kind:`Vlock ("smalldb.ckpt:" ^ App.name);
      gc_mutex;
      gc_cond = Condition.create ();
      gc_forming = Sdb_check.Guarded.create ~by:gc_mutex ~name:"gc_forming" None;
      gc_opened = Sdb_check.Guarded.create ~by:gc_mutex ~name:"gc_opened" 0;
      gc_serving = Sdb_check.Guarded.create ~by:gc_mutex ~name:"gc_serving" 0;
      last_flush_s = 0.;
      last_joined = 1;
      pickle_buf = Buffer.create 256;
      ckpt_bytes;
      epoch = Epoch.create ~name:App.name ~lsn state;
      state;
      wal;
      generation;
      lsn;
      committed = 0;
      since_ckpt = 0;
      ckpts = 0;
      closed = false;
      poisoned = false;
      degraded_reason = None;
      degraded_retry_at = 0.;
      degraded_backoff = backoff_initial;
      auto_ckpt_retry_at = 0.;
      auto_ckpt_backoff = backoff_initial;
      last_scrub = None;
      scrub_stop = false;
      scrub_thread = None;
      recovery;
      t_verify = 0.;
      t_pickle = 0.;
      t_log = 0.;
      t_apply = 0.;
      t_ckpt_pickle = 0.;
      t_ckpt_write = 0.;
      t_restore = 0.;
      t_replay = 0.;
      subs_mutex = Sdb_check.Mu.make ("smalldb.subs:" ^ App.name);
      subscribers = [];
      next_sub = 0;
    }

  (* Sized from the previous checkpoint, with room to grow by an
     eighth before the buffer has to double. *)
  let checkpoint_blob ?(last_bytes = 0) ~lsn state =
    Pickle.to_string
      ~size_hint:(last_bytes + (last_bytes / 8))
      codec_blob
      ({ app = App.name; base_lsn = lsn }, state)

  let create_fresh fs config =
    let state = App.init () in
    let blob = checkpoint_blob ~lsn:0 state in
    Store.write_checkpoint fs ~version:0 blob;
    let wal = Wal.Writer.create fs (Store.log_file 0) ~fingerprint:update_fp in
    Store.commit ~archive_logs:config.archive_logs
      ~retain_previous:config.retain_previous ~old_version:None ~new_version:0 fs;
    Ok
      (make fs config ~ckpt_bytes:(String.length blob) state wal 0 0
         fresh_recovery)

  let load_checkpoint fs file =
    match Fs.read_file fs file with
    | exception Fs.Read_error { reason; _ } ->
      Error (Printf.sprintf "checkpoint %s unreadable: %s" file reason)
    | blob -> (
      match Pickle.of_string codec_blob blob with
      | Error m -> Error (Printf.sprintf "checkpoint %s: %s" file m)
      | Ok (meta, state) ->
        if not (String.equal meta.app App.name) then
          Error
            (Printf.sprintf "checkpoint %s belongs to application %S, not %S" file
               meta.app App.name)
        else Ok (meta, state, String.length blob))

  let wal_policy = function
    | `Stop_at_damage -> Wal.Reader.Stop_at_damage
    | `Skip_damaged -> Wal.Reader.Skip_damaged

  (* Fold [f] over one log's updates with their LSNs, from [lsn] on.
     The log's first entry has LSN [first] (default [lsn]): a log may
     open with the tail its predecessor also holds (see [checkpoint]),
     and entries below [lsn] have been seen already. *)
  let fold_updates fs ~policy ?first ~log ~init ~lsn f =
    let first = Option.value first ~default:lsn in
    if first > lsn then
      Error (Printf.sprintf "log %s starts at lsn %d, after lsn %d" log first lsn)
    else
      match
        Wal.Reader.fold fs log ~fingerprint:update_fp ~policy ~init:(init, lsn)
          ~f:(fun (acc, lsn) (entry : Wal.Reader.entry) ->
            if first + entry.index < lsn then (acc, lsn)
            else
              (f acc lsn (Pickle.decode App.codec_update entry.payload), lsn + 1))
      with
      | Error e -> Error (Format.asprintf "log %s: %a" log Wal.pp_error e)
      | Ok ((acc, lsn), outcome) -> Ok (acc, lsn, outcome)
      | exception Pickle.Error m ->
        Error (Printf.sprintf "log %s: undecodable committed entry: %s" log m)

  (* Replay one log over (state, lsn); apply errors are fatal because a
     committed update must be applicable.  Valid committed entries
     beyond interior damage are a hard error (§4), not a torn tail:
     truncating would silently lose them, so escalate instead. *)
  let replay fs config ?first ~log ~state ~lsn () =
    match
      fold_updates fs ~policy:(wal_policy config.log_recovery) ?first ~log
        ~init:state ~lsn (fun state _ u -> App.apply state u)
    with
    | Ok (_, _, o) when o.Wal.Reader.entries_beyond_damage > 0 ->
      Error
        (Printf.sprintf
           "log %s: interior damage with %d committed entries beyond it; use \
            Skip_damaged recovery or restore from a replica"
           log o.Wal.Reader.entries_beyond_damage)
    | r -> r

  let restore fs config (rcv : Store.recovery) =
    let gen = rcv.Store.current in
    let t0 = now () in
    let current_ckpt = load_checkpoint fs gen.Store.checkpoint_file in
    let via_previous reason =
      match (config.hard_error_fallback, rcv.Store.previous) with
      | true, Some prev -> (
        match load_checkpoint fs prev.Store.checkpoint_file with
        | Error e ->
          Error
            (Printf.sprintf "%s; previous generation also unusable: %s" reason e)
        | Ok (meta, state, bytes) -> (
          match
            replay fs config ~log:prev.Store.log_file ~state ~lsn:meta.base_lsn ()
          with
          | Error e -> Error (Printf.sprintf "%s; previous %s" reason e)
          | Ok (state, lsn, _outcome) -> (
            (* The current log may open with entries the previous log
               already replayed; its recorded base says how many. *)
            match Store.log_base fs gen.Store.version with
            | first -> Ok (state, lsn, first, bytes)
            | exception (Fs.Read_error _ | Fs.Io_error _) ->
              Error (Printf.sprintf "%s; log base unreadable" reason))))
      | _ -> Error reason
    in
    let loaded =
      match current_ckpt with
      | Ok (meta, state, bytes) -> Ok (state, meta.base_lsn, None, bytes)
      | Error reason -> via_previous reason
    in
    match loaded with
    | Error e -> Error e
    | Ok (state, lsn, first, ckpt_bytes) -> (
      let used_previous = Result.is_error current_ckpt in
      let t1 = now () in
      match replay fs config ?first ~log:gen.Store.log_file ~state ~lsn () with
      | Error e -> Error e
      | Ok (state, lsn, outcome) ->
        let t2 = now () in
        let entries_in_file =
          outcome.Wal.Reader.entries_read + outcome.Wal.Reader.skipped
        in
        let wal =
          Wal.Writer.reopen fs gen.Store.log_file ~fingerprint:update_fp
            ~valid_length:outcome.Wal.Reader.valid_length ~entries:entries_in_file
        in
        let recovery =
          {
            replayed = outcome.Wal.Reader.entries_read;
            skipped_damaged = outcome.Wal.Reader.skipped;
            log_tail_discarded = outcome.Wal.Reader.stopped_early <> None;
            used_previous_generation = used_previous;
            completed_switch = rcv.Store.completed_switch;
            removed_files = rcv.Store.removed_files;
          }
        in
        let t =
          make fs config ~ckpt_bytes state wal gen.Store.version lsn recovery
        in
        (* Replayed log entries are not covered by the checkpoint we
           restored from: they count toward the next policy boundary. *)
        t.since_ckpt <- entries_in_file;
        t.t_restore <- t1 -. t0;
        t.t_replay <- t2 -. t1;
        Metrics.incr m_recoveries;
        Metrics.observe m_recovery_restore (t1 -. t0);
        Metrics.observe m_recovery_replay (t2 -. t1);
        if Trace.active () then begin
          let attrs = [ ("app", App.name) ] in
          Trace.span "recovery.restore" ~attrs ~start_s:t0 ~dur_s:(t1 -. t0);
          Trace.span "recovery.replay"
            ~attrs:(attrs @ [ ("replayed", string_of_int recovery.replayed) ])
            ~start_s:t1 ~dur_s:(t2 -. t1)
        end;
        Ok t)

  (* ---------------------------------------------------------------- *)
  (* Checkpointing                                                     *)

  (* Remove the partial files of a generation whose switch never
     committed.  Failures are swallowed: recovery deletes the same
     orphans at the next open. *)
  let scrap_partial_generation t next =
    List.iter
      (fun f -> try t.fs.Fs.remove f with Fs.Io_error _ -> ())
      [
        Store.newversion_file;
        Store.checkpoint_file next;
        Store.log_base_file next;
        Store.log_file next;
      ]

  (* Called on any successful checkpoint: the fresh, empty log is the
     one operation in this design that reclaims disk space, so it both
     resets the auto-checkpoint backoff and exits degraded mode. *)
  let note_space_reclaimed t =
    t.auto_ckpt_backoff <- backoff_initial;
    t.auto_ckpt_retry_at <- 0.;
    if t.degraded_reason <> None then begin
      t.degraded_reason <- None;
      Metrics.set_gauge m_degraded 0.;
      Metrics.incr m_degraded_recoveries
    end

  (* Bytes read, [want] unless the file ends first. *)
  let really_read r buf want =
    let rec go got =
      if got >= want then got
      else
        match r.Fs.r_read buf got (want - got) with 0 -> got | n -> go (got + n)
    in
    go 0

  let due_for_checkpoint t =
    match t.config.policy with
    | Manual -> false
    (* Count updates since the last checkpoint, not [committed mod n]:
       a batch that jumps over the multiple must still trigger. *)
    | Every_n_updates n -> n > 0 && t.since_ckpt >= n
    | Log_bytes_exceeds limit -> Wal.Writer.length t.wal > limit

  (* The one checkpoint (see the mli for its three phases).  Phase 1
     captures snapshot, LSN and log offset in one Update hold, so the
     offset matches the snapshot; phase 3 blits the tail as raw
     frames.  The caller holds [ckpt_mutex] and no engine lock.  Before
     the commit point a [No_space], a rolled-back append or a sanitizer
     report scraps the new generation and leaves the engine usable; an
     engine poisoned meanwhile (by a failed group fsync) is left as it
     is, its partial files to the recovery of the next open; any other
     failure, and any after the commit point, poisons.  With
     [if_due], phase 1 first checks that the policy still calls for a
     checkpoint. *)
  let checkpoint_held ~if_due t =
    let blob_of ~lsn st = checkpoint_blob ~last_bytes:t.ckpt_bytes ~lsn st in
    match
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          check_usable t;
          if if_due && not (due_for_checkpoint t) then None
          else
            let t0 = now () in
            let snap =
              if persistent then `State t.state
              else `Blob (blob_of ~lsn:t.lsn t.state)
            in
            Some (t0, snap, t.lsn, Wal.Writer.length t.wal))
    with
    | None -> ()
    | Some (t0, snap, snap_lsn, snap_off) ->
      let blob =
        match snap with `Blob b -> b | `State st -> blob_of ~lsn:snap_lsn st
      in
      let t1 = now () in
      let next = t.generation + 1 in
      let committed = ref false in
      let new_wal = ref None in
      (try
         Store.write_checkpoint t.fs ~version:next blob;
         (* Logs read across generations (the archive, the retained
            previous generation) need the new log's first LSN. *)
         if t.config.archive_logs || t.config.retain_previous then
           Fs.write_file t.fs (Store.log_base_file next) (string_of_int snap_lsn);
         let wal' =
           Wal.Writer.create t.fs (Store.log_file next) ~fingerprint:update_fp
         in
         new_wal := Some wal';
         Vlock.with_lock t.lock Vlock.Update (fun () ->
             check_usable t;
             (* A published version must not have changed since phase 1:
                the declaration [`Persistent] is a promise the engine
                can only check by pickling it again. *)
             (match snap with
             | `State st
               when Sdb_check.enabled ()
                    && not (String.equal blob (blob_of ~lsn:snap_lsn st)) ->
               Sdb_check.epoch_violation ~name:App.name
                 ~message:
                   "checkpoint snapshot mutated while it was written (a \
                    mutable state declared `Persistent)"
             | _ -> ());
             let tail_count = t.lsn - snap_lsn in
             let tail_len = Wal.Writer.length t.wal - snap_off in
             if tail_len > 0 then begin
               let log = Store.log_file t.generation in
               let r = t.fs.Fs.open_reader log in
               let tail = Bytes.create tail_len in
               Fun.protect
                 ~finally:(fun () -> r.Fs.r_close ())
                 (fun () ->
                   r.Fs.r_seek snap_off;
                   if really_read r tail tail_len < tail_len then
                     Fs.io_fail ~op:"read" ~file:log "short log tail");
               Wal.Writer.append_raw_frames wal' (Bytes.unsafe_to_string tail)
                 ~count:tail_count;
               Wal.Writer.sync wal'
             end;
             Store.commit ~archive_logs:t.config.archive_logs
               ~retain_previous:t.config.retain_previous
               ~old_version:(Some t.generation) ~new_version:next t.fs;
             committed := true;
             (try Wal.Writer.close t.wal with Fs.Io_error _ -> ());
             Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
               ~site:"checkpoint.install";
             t.wal <- wal';
             t.generation <- next;
             t.ckpts <- t.ckpts + 1;
             t.ckpt_bytes <- String.length blob;
             (* The carried tail is not covered by the snapshot. *)
             t.since_ckpt <- tail_count;
             note_space_reclaimed t)
       with e ->
         if not !committed then
           Option.iter
             (fun w -> try Wal.Writer.close w with Fs.Io_error _ -> ())
             !new_wal;
         (match e with
         | Poisoned | Closed when not !committed -> ()
         | Fs.No_space _ | Wal.Append_rolled_back _ | Sdb_check.Violation _
           when not !committed ->
           scrap_partial_generation t next
         | _ -> t.poisoned <- true);
         raise e);
      let t2 = now () in
      let pickle_s = t1 -. t0 in
      t.t_ckpt_pickle <- t.t_ckpt_pickle +. pickle_s;
      t.t_ckpt_write <- t.t_ckpt_write +. (t2 -. t1);
      Metrics.incr m_checkpoints;
      Metrics.observe m_ckpt_pickle pickle_s;
      Metrics.observe m_ckpt_write (t2 -. t1);
      if Trace.active () then
        Trace.span "checkpoint"
          ~attrs:
            [
              ("app", App.name);
              ("kind", if persistent then "persistent" else "mutable");
              ("generation", string_of_int next);
            ]
          ~start_s:t0 ~dur_s:(t2 -. t0)
  [@@sdb.acquires update]

  let checkpoint t =
    check_usable t;
    Sdb_check.Mu.with_lock t.ckpt_mutex (fun () -> checkpoint_held ~if_due:false t)
  [@@sdb.acquires update]

  (* Run by the updater whose group crossed the policy's threshold,
     after it left the commit slot, so the next group commits while this
     checkpoint writes; one already in flight covers it. *)
  let maybe_auto_checkpoint t =
    if due_for_checkpoint t then
      ignore
        (Sdb_check.Mu.try_with_lock t.ckpt_mutex (fun () ->
             if now () >= t.auto_ckpt_retry_at then
               try checkpoint_held ~if_due:true t
               with Fs.No_space _ ->
                 (* The update itself committed; the log just could not
                    be compacted yet.  Back off and keep running —
                    degraded mode is entered only once an append itself
                    no longer fits. *)
                 t.auto_ckpt_backoff <-
                   Float.min (t.auto_ckpt_backoff *. 2.) backoff_max;
                 t.auto_ckpt_retry_at <- now () +. t.auto_ckpt_backoff)
          : unit option)

  (* Degraded mode is read-only: enquiries run, updates are refused
     with [Degraded].  Once the backoff timer expires, an update
     attempt first tries the exit path — a checkpoint, the only
     operation in this design that reclaims disk space (it resets the
     log to empty and deletes the superseded generation). *)
  let try_exit_degraded t reason =
    match checkpoint t with
    | () -> () (* [note_space_reclaimed] cleared the flag *)
    | exception Fs.No_space _ ->
      t.degraded_backoff <- Float.min (t.degraded_backoff *. 2.) backoff_max;
      t.degraded_retry_at <- now () +. t.degraded_backoff;
      raise (Degraded reason)

  let check_updatable t =
    check_usable t;
    match t.degraded_reason with
    | None -> ()
    | Some reason ->
      if now () < t.degraded_retry_at then raise (Degraded reason)
      else begin
        try_exit_degraded t reason;
        check_usable t
      end

  let subscribe t f =
    Sdb_check.Mu.with_lock t.subs_mutex (fun () ->
        let id = t.next_sub in
        t.next_sub <- id + 1;
        t.subscribers <- t.subscribers @ [ (id, f) ];
        id)

  let unsubscribe t id =
    Sdb_check.Mu.with_lock t.subs_mutex (fun () ->
        t.subscribers <- List.filter (fun (i, _) -> i <> id) t.subscribers)

  let notify t lsn u =
    let subs = Sdb_check.Mu.with_lock t.subs_mutex (fun () -> t.subscribers) in
    List.iter (fun (_, f) -> f lsn u) subs

  (* ---------------------------------------------------------------- *)
  (* Group commit (§4d): the one commit path                          *)

  let is_pending m = match m.m_outcome with M_pending -> true | _ -> false

  (* Whether [g] still takes joiners (call under [gc_mutex]). *)
  let is_forming t g =
    match Sdb_check.Guarded.get t.gc_forming with Some f -> f == g | None -> false

  (* Wake every still-pending member with its outcome.  Every leader
     path calls this exactly once, before notifications run. *)
  let wake_group t members outcome_of =
    Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
        List.iter
          (fun m -> if is_pending m then m.m_outcome <- outcome_of m)
          members;
        Condition.broadcast t.gc_cond)
  [@@sdb.noblock]

  let release_slot t =
    Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
        Sdb_check.Guarded.set t.gc_serving (Sdb_check.Guarded.get t.gc_serving + 1);
        Condition.broadcast t.gc_cond)
  [@@sdb.noblock]

  (* The linger: give the forming group time to grow while that is
     likely to pay.  The leader keeps waiting while an updater is queued
     on the Update lock (it will verify, pickle and join within its next
     quantum) or while its group is still smaller than the last one (the
     last group's members are on their way back) — but never longer than
     the last group's flush took, since lingering longer than one fsync
     is never a win, and not at all once a checked update has closed
     the group to joiners.  It sleeps between looks, so the joiners get
     the CPU.  With a single updater nobody is queued and the last group
     had one member: no wait at all (a checked leader, [own], counts
     its own update, which joins at the seal).  Returns whether it
     waited. *)
  let linger_slice = 50e-6

  let linger t ~own g =
    let limit = now () +. t.last_flush_s in
    let worth_waiting () =
      let forming, joined =
        Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
            (is_forming t g, List.length g.g_members))
      in
      forming
      && (joined + Bool.to_int own < t.last_joined
         || (Vlock.waiting t.lock).Vlock.waiting_update > 0)
    in
    let rec go waited =
      let left = limit -. now () in
      if left > 0. && worth_waiting () then begin
        Thread.delay (Float.min linger_slice left);
        go true
      end
      else waited
    in
    go false

  (* Steps (1) and (2) up to the log write, under the Update lock:
     verify against the current state, then pickle the parameters. *)
  let prepare t verify updates =
    let t0 = now () in
    let v = verify t.state in
    let dv = now () -. t0 in
    t.t_verify <- t.t_verify +. dv;
    Metrics.observe m_phase_verify dv;
    if Trace.active () then
      Trace.span "update.verify" ~attrs:[ ("app", App.name) ] ~start_s:t0 ~dur_s:dv;
    Result.map
      (fun () ->
        let t1 = now () in
        (* The scratch buffer is guarded by the Update lock. *)
        Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
          ~site:"commit.pickle_buf";
        let payloads =
          List.map
            (fun u ->
              Buffer.clear t.pickle_buf;
              Pickle.encode_into t.pickle_buf App.codec_update u;
              Buffer.contents t.pickle_buf)
            updates
        in
        let dp = now () -. t1 in
        t.t_pickle <- t.t_pickle +. dp;
        Metrics.observe m_phase_pickle dp;
        { m_updates = updates; m_payloads = payloads; m_outcome = M_pending })
      v

  (* The group leader: the updater that opened the forming group.
     It (1) claims the commit slot, so groups commit one at a time in
     formation order;
     (2) lingers (above); (3) takes the Update lock and seals the group
     (members join under that same lock, so from here the member list
     is final and nothing else can touch the writer's staging buffer);
     a checked leader ([own]) verifies and pickles its own update now,
     first in its group; (4) stages every member's frames and emits
     them with one write + one fsync — the commit point; (5) upgrades
     to Exclusive once and applies the whole group in stage order,
     assigning dense LSNs; (6) wakes the group and notifies subscribers
     in LSN order, then leaves the commit slot ([commit] runs the
     auto-checkpoint after that).  Update is held from the seal through
     the apply: whoever takes it next sees every sealed group applied,
     and a checked leader's precondition sees exactly the state its
     update applies to.

     Every exit path either releases the lock or poisons the engine
     AND releases — never leaks.  A failure BEFORE the commit point
     leaves the engine usable, because nothing reached the disk; a
     failure AT or AFTER it poisons, because memory and disk may now
     disagree — but still releases and wakes every member, so nobody
     deadlocks.  Member-wise (§4b/§4c):
     - poisoned/closed at seal time: members fail with
       [Poisoned]/[Closed]; nothing was staged;
     - a refused or raising precondition of the leader's own update:
       only that update fails, the rest of the group commits;
     - a frame rejected at stage time (oversized payload): nothing on
       disk, the whole group fails with that exception, engine usable;
     - [No_space] on the group append: all-or-nothing, so nothing
       committed — enter degraded (read-only) mode and fail every
       member with [Degraded];
     - any other rolled-back group write: the log was restored, fail
       every member with the cause, engine stays usable;
     - a failed fsync: an unknown prefix of the group may be durable —
       poison (fsyncgate: never retried), parked members fail with
       [Poisoned], the leader re-raises the original failure;
     - a failing [apply]: poison (a committed update must apply).

     The leader raises its own failure; otherwise it returns its own
     update's verdict once the whole group committed. *)
  let lead t ?own (g : group) =
    let traced = Trace.active () in
    let t_join0 = now () in
    Sdb_check.Mu.lock t.gc_mutex;
    let queued = Sdb_check.Guarded.get t.gc_serving <> g.g_ticket in
    while Sdb_check.Guarded.get t.gc_serving <> g.g_ticket do
      Sdb_check.Mu.wait t.gc_cond t.gc_mutex
    done;
    Sdb_check.Mu.unlock t.gc_mutex;
    Fun.protect ~finally:(fun () -> release_slot t) @@ fun () ->
    let lingered = linger t ~own:(own <> None) g in
    (* The leader's "join" phase is the commit-slot wait plus the
       linger; a member's (below) is its park on the group outcome.
       An updater that never waited emits none. *)
    if traced && (queued || lingered) then
      Trace.span "update.join"
        ~attrs:
          [ ("app", App.name); ("role", if own = None then "leader" else "checked") ]
        ~start_s:t_join0 ~dur_s:(now () -. t_join0);
    Vlock.acquire t.lock Vlock.Update;
    let held = ref (Some Vlock.Update) in
    let release () =
      match !held with
      | Some mode ->
        held := None;
        Vlock.release t.lock mode
      | None -> ()
    in
    (* Seal: late arrivals will form (and lead) the next group. *)
    let members =
      Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
          if is_forming t g then Sdb_check.Guarded.set t.gc_forming None;
          List.rev g.g_members)
    in
    let fail_all ?(poison = false) ~leader member_exn =
      if poison then t.poisoned <- true;
      release ();
      wake_group t members (fun _ -> M_failed member_exn);
      raise leader
    in
    if t.closed then fail_all ~leader:Closed Closed;
    if t.poisoned then fail_all ~leader:Poisoned Poisoned;
    let verdict, batch =
      match own with
      | None -> ((fun () -> Ok ()), members)
      | Some (verify, updates) -> (
        match prepare t verify updates with
        | Ok m -> ((fun () -> Ok ()), m :: members)
        | Error e -> ((fun () -> Error e), members)
        | exception e -> ((fun () -> raise e), members))
    in
    let size = [ ("app", App.name); ("group_size", string_of_int (List.length batch)) ] in
    if batch = [] then begin
      release ();
      verdict ()
    end
    else
    match
      (match
         List.iter (fun m -> List.iter (Wal.Writer.stage t.wal) m.m_payloads) batch
       with
      | () -> ()
      | exception e ->
        Wal.Writer.discard_group t.wal;
        fail_all ~leader:e e);
      let t1 = now () in
      (try ignore (Wal.Writer.flush_group t.wal : int * int) with
      | Wal.Append_rolled_back (Fs.No_space _ as cause) ->
        let reason = Fs.describe_exn cause in
        enter_degraded t reason;
        fail_all ~leader:(Degraded reason) (Degraded reason)
      | Wal.Append_rolled_back cause -> fail_all ~leader:cause cause
      | e -> fail_all ~poison:true ~leader:e Poisoned);
      let t2 = now () in
      t.t_log <- t.t_log +. (t2 -. t1);
      t.last_flush_s <- t2 -. t1;
      t.last_joined <- List.length batch;
      Metrics.observe m_phase_log (t2 -. t1);
      if traced then Trace.span "update.log" ~attrs:size ~start_s:t1 ~dur_s:(t2 -. t1);
      Vlock.upgrade t.lock;
      held := Some Vlock.Exclusive;
      Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Exclusive
        ~site:"lead.apply";
      (try
         let t0 = now () in
         List.iter
           (fun m -> List.iter (fun u -> t.state <- App.apply t.state u) m.m_updates)
           batch;
         let da = now () -. t0 in
         t.t_apply <- t.t_apply +. da;
         Metrics.observe m_phase_apply da;
         if traced then Trace.span "update.apply" ~attrs:size ~start_s:t0 ~dur_s:da
       with e -> fail_all ~poison:true ~leader:e Poisoned);
      let base = t.lsn in
      let assigned =
        List.map
          (fun m ->
            let first = t.lsn in
            t.lsn <- t.lsn + List.length m.m_updates;
            (m, first))
          batch
      in
      let n_total = t.lsn - base in
      t.committed <- t.committed + n_total;
      t.since_ckpt <- t.since_ckpt + n_total;
      Metrics.add m_updates n_total;
      Metrics.observe m_group_size (float_of_int n_total);
      publish_epoch t;
      release ();
      wake_group t members (fun m -> M_committed (List.assq m assigned));
      assigned
    with
    | exception e ->
      (* Belt and braces: no leader path above may leave a member
         parked forever.  Anything unexpected (every expected failure
         went through [fail_all] and settled the group already) still
         wakes the group, poisoned. *)
      let stranded =
        Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
            List.exists is_pending members)
      in
      if stranded then begin
        t.poisoned <- true;
        release ();
        wake_group t members (fun _ -> M_failed Poisoned)
      end;
      raise e
    | assigned ->
      (* Subscribers see the group in stage order with dense LSNs,
         exactly as if the members had committed one by one.  The
         commit slot is still held, so groups notify in LSN order; a
         raising subscriber propagates to the leader's caller (the
         whole group is already durable, applied, and awake). *)
      Trace.with_span "update.notify" ~attrs:size (fun () ->
          List.iter
            (fun (m, first) ->
              List.iteri (fun i u -> notify t (first + i) u) m.m_updates)
            assigned);
      verdict ()
  [@@sdb.acquires exclusive]

  (* Every update, checked or not, single or batched: the paper's three
     steps under the paper's locks, with the log write shared.  Under
     the Update lock (enquiries keep running) a plain update verifies
     and pickles, then joins the forming group — or opens one and
     becomes its leader — and releases the lock.  A member parks until
     the leader settles the whole group with one write and one fsync;
     the leader commits as above.  A raising pickler propagates with
     the lock released and nothing joined: nothing reached the disk,
     so only this update fails and the engine stays usable.

     Preconditions are serial: [verify] must see every update ordered
     before its own.  An open group's members are staged but not yet
     applied, so a checked update never joins one: it always opens a
     group of its own, closing the forming one to joiners, and verifies
     at its seal (see [lead]).  Plain updates arriving meanwhile join
     behind it.  Groups commit in formation order, so it waits out at
     most the group committing and the one it closed, however many
     plain updates flood in. *)
  let commit t ?verify updates =
    check_updatable t;
    let step =
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          let opened members =
            let g =
              { g_members = members; g_ticket = Sdb_check.Guarded.get t.gc_opened }
            in
            Sdb_check.Guarded.set t.gc_opened (g.g_ticket + 1);
            Sdb_check.Guarded.set t.gc_forming (Some g);
            `Leader g
          in
          match verify with
          | Some _ -> Sdb_check.Mu.with_lock t.gc_mutex (fun () -> opened [])
          | None -> (
            match prepare t (fun _ -> Ok ()) updates with
            | Error _ -> assert false (* no precondition, nothing to refuse *)
            | Ok m ->
              Sdb_check.Mu.with_lock t.gc_mutex (fun () ->
                  match Sdb_check.Guarded.get t.gc_forming with
                  | Some g ->
                    g.g_members <- m :: g.g_members;
                    `Member m
                  | None -> opened [ m ])))
    in
    match step with
    | `Leader g ->
      let verdict =
        lead t ?own:(Option.map (fun f -> (f, updates)) verify) g
      in
      maybe_auto_checkpoint t;
      verdict
    | `Member m -> (
      (* Park until the leader settles the group: one [update.join]. *)
      let t0 = now () in
      Sdb_check.Mu.lock t.gc_mutex;
      while is_pending m do
        Sdb_check.Mu.wait t.gc_cond t.gc_mutex
      done;
      Sdb_check.Mu.unlock t.gc_mutex;
      if Trace.active () then
        Trace.span "update.join"
          ~attrs:[ ("app", App.name); ("role", "member") ]
          ~start_s:t0 ~dur_s:(now () -. t0);
      match m.m_outcome with
      | M_committed _ -> Ok ()
      | M_failed e -> raise e
      | M_pending -> assert false)
  [@@sdb.acquires exclusive]

  (* ---------------------------------------------------------------- *)
  (* Enquiries and updates                                             *)

  let query_with_lsn t f =
    check_usable t;
    if persistent then
      (* Payload and LSN come from the same published version — the
         atomicity the locked route gets from holding Shared across
         both reads. *)
      Epoch.read_with_lsn t.epoch f
    else
      Vlock.with_lock t.lock Vlock.Shared (fun () ->
          Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Shared
            ~site:"query";
          (f t.state, t.lsn))
  [@@sdb.acquires shared]

  let query t f = fst (query_with_lsn t f) [@@sdb.acquires shared]

  let update_checked t ~precondition u = commit t ~verify:precondition [ u ]

  let update t u =
    match commit t [ u ] with
    | Ok () -> ()
    | Error _ -> assert false (* no precondition, nothing to refuse *)

  (* The whole batch rides as one group member: its frames stay
     contiguous in stage order and share the group's one write and one
     fsync. *)
  let update_batch t updates =
    if updates = [] then check_updatable t
    else
      match commit t updates with
      | Ok () -> ()
      | Error _ -> assert false (* no precondition, nothing to refuse *)

  (* ---------------------------------------------------------------- *)
  (* Online integrity scrub                                             *)

  let scan_page = 4096

  (* Scan one whole file for unreadable (media-damaged) ranges, page by
     page: a damaged page yields one finding and the scan resumes at
     the next page, so every distinct damage range is reported rather
     than only the first. *)
  let scan_file t file findings =
    if t.fs.Fs.exists file then begin
      match t.fs.Fs.open_reader file with
      | exception e ->
        findings := { file; offset = 0; reason = Fs.describe_exn e } :: !findings
      | r ->
        Fun.protect
          ~finally:(fun () -> r.Fs.r_close ())
          (fun () ->
            let size = r.Fs.r_size in
            let buf = Bytes.create scan_page in
            let off = ref 0 in
            while !off < size do
              let want = min scan_page (size - !off) in
              (match
                 r.Fs.r_seek !off;
                 ignore (really_read r buf want : int)
               with
              | () -> ()
              | exception Fs.Read_error { offset; reason; _ } ->
                findings := { file; offset; reason } :: !findings
              | exception e ->
                findings :=
                  { file; offset = !off; reason = Fs.describe_exn e }
                  :: !findings);
              off := !off + want
            done)
    end

  (* Frame-level verification of one log file: CRC-checks every entry
     under [Skip_damaged] so damage past the first bad entry is still
     enumerated, optionally folding the decoded updates. *)
  let verify_log t log findings ~f ~init =
    match
      Wal.Reader.fold t.fs log ~fingerprint:update_fp
        ~policy:Wal.Reader.Skip_damaged ~init ~f
    with
    | Error e ->
      findings :=
        { file = log; offset = 0; reason = Format.asprintf "%a" Wal.pp_error e }
        :: !findings;
      None
    | exception Pickle.Error m ->
      findings :=
        { file = log; offset = 0; reason = "undecodable committed entry: " ^ m }
        :: !findings;
      None
    | Ok (acc, outcome) ->
      List.iter
        (fun (offset, reason) ->
          findings := { file = log; offset; reason } :: !findings)
        outcome.Wal.Reader.damage;
      Some (acc, outcome)

  (* Re-read current (and retained previous) checkpoint + log under the
     checkpoint mutex and the update lock, so enquiries keep running
     while updates and checkpoints wait.  With [repair] (and damage
     found), a fresh generation is checkpointed from the known-good
     in-memory state, still under the checkpoint mutex, and the damaged
     files are dropped. *)
  let scrub ?(repair = false) ?digest t =
    check_usable t;
    let t0 = now () in
    Sdb_check.Mu.with_lock t.ckpt_mutex (fun () ->
        let findings, scanned, replay_consistent =
          Vlock.with_lock t.lock Vlock.Update (fun () ->
              check_usable t;
              Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
                ~site:"scrub";
              let gen = t.generation in
              let ckpt = Store.checkpoint_file gen in
              let log = Store.log_file gen in
              let findings = ref [] in
              (* 1. Media scan of every file of both generations. *)
              let prev_log = Store.log_file (gen - 1) in
              let scanned =
                ckpt :: log
                :: List.filter
                     (fun f -> gen > 0 && t.fs.Fs.exists f)
                     [ Store.checkpoint_file (gen - 1); prev_log ]
              in
              List.iter (fun f -> scan_file t f findings) scanned;
              if List.mem prev_log scanned then
                ignore
                  (verify_log t prev_log findings ~init:() ~f:(fun () _ -> ())
                    : (unit * _) option);
              (* 2. Shadow replay: decode the checkpoint, replay the log
                 into it, and cross-check the result against memory. *)
              let replay_consistent = ref true in
              (match load_checkpoint t.fs ckpt with
              | exception Fs.Read_error _ ->
                (* already reported by the media scan *)
                replay_consistent := false
              | Error reason ->
                replay_consistent := false;
                if
                  not (List.exists (fun f -> String.equal f.file ckpt) !findings)
                then findings := { file = ckpt; offset = 0; reason } :: !findings
              | Ok (meta, shadow0, _bytes) -> (
                match
                  verify_log t log findings ~init:(shadow0, meta.base_lsn)
                    ~f:(fun (st, lsn) entry ->
                      let u =
                        Pickle.decode App.codec_update entry.Wal.Reader.payload
                      in
                      (App.apply st u, lsn + 1))
                with
                | None -> replay_consistent := false
                | Some ((shadow, shadow_lsn), outcome) ->
                  if
                    outcome.Wal.Reader.skipped > 0
                    || outcome.Wal.Reader.stopped_early <> None
                  then replay_consistent := false
                  else begin
                    if shadow_lsn <> t.lsn then begin
                      replay_consistent := false;
                      findings :=
                        {
                          file = log;
                          offset = outcome.Wal.Reader.valid_length;
                          reason =
                            Printf.sprintf
                              "replay reaches lsn %d but memory is at lsn %d"
                              shadow_lsn t.lsn;
                        }
                        :: !findings
                    end;
                    match digest with
                    | Some d when !replay_consistent ->
                      if not (String.equal (d shadow) (d t.state)) then begin
                        replay_consistent := false;
                        findings :=
                          {
                            file = ckpt;
                            offset = -1;
                            reason =
                              "replayed disk state digest differs from memory";
                          }
                          :: !findings
                      end
                    | _ -> ()
                  end));
              (List.rev !findings, scanned, !replay_consistent))
        in
        Metrics.incr m_scrub_runs;
        Metrics.add m_scrub_damage (List.length findings);
        (* 3. Self-repair: memory is the known-good copy (§4 — restore
           consistency by writing a fresh checkpoint from it), then drop
           the damaged files the new generation no longer references. *)
        let repaired =
          repair && findings <> []
          &&
          match checkpoint_held ~if_due:false t with
          | () ->
            Metrics.incr m_scrub_repairs;
            List.iter
              (fun (f : scrub_finding) ->
                if f.offset >= 0 && t.fs.Fs.exists f.file then
                  try t.fs.Fs.remove f.file with Fs.Io_error _ -> ())
              findings;
            true
          | exception Fs.No_space _ ->
            false (* repair needs headroom; report unrepaired, try later *)
        in
        let report =
          {
            scanned_files = scanned;
            findings;
            replay_consistent;
            repaired;
            scrub_duration_s = now () -. t0;
          }
        in
        t.last_scrub <- Some report;
        if Trace.active () then
          Trace.span "scrub"
            ~attrs:
              [
                ("app", App.name);
                ("findings", string_of_int (List.length findings));
                ("repaired", string_of_bool repaired);
              ]
            ~start_s:t0 ~dur_s:report.scrub_duration_s;
        report)

  let last_scrub t = t.last_scrub

  (* ---------------------------------------------------------------- *)
  (* Background scrubber                                               *)

  let scrub_tick = 0.05

  let start_scrubber ?(interval = 60.) ?(repair = true) ?digest t =
    check_usable t;
    if t.scrub_thread <> None then
      invalid_arg "Smalldb.start_scrubber: already running";
    t.scrub_stop <- false;
    let alive () = (not t.scrub_stop) && not t.closed in
    let thread =
      Thread.create
        (fun () ->
          let rec sleep_until deadline =
            if alive () then begin
              let left = deadline -. now () in
              if left > 0. then begin
                Thread.delay (Float.min scrub_tick left);
                sleep_until deadline
              end
            end
          in
          let rec loop () =
            sleep_until (now () +. interval);
            if alive () then begin
              (match scrub ~repair ?digest t with
              | (_ : scrub_report) -> ()
              | exception (Closed | Poisoned) -> t.scrub_stop <- true
              | exception _ -> ());
              loop ()
            end
          in
          loop ())
        ()
    in
    t.scrub_thread <- Some thread

  let stop_scrubber t =
    t.scrub_stop <- true;
    match t.scrub_thread with
    | None -> ()
    | Some th ->
      t.scrub_thread <- None;
      Thread.join th

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)

  let stats t =
    Vlock.with_lock t.lock Vlock.Shared (fun () ->
        {
          generation = t.generation;
          lsn = t.lsn;
          updates_committed = t.committed;
          checkpoints_written = t.ckpts;
          log_entries = Wal.Writer.entries t.wal;
          log_bytes = Wal.Writer.length t.wal;
          phase =
            {
              verify_s = t.t_verify;
              pickle_s = t.t_pickle;
              log_s = t.t_log;
              apply_s = t.t_apply;
              ckpt_pickle_s = t.t_ckpt_pickle;
              ckpt_write_s = t.t_ckpt_write;
              restore_s = t.t_restore;
              replay_s = t.t_replay;
            };
          recovery = t.recovery;
        })

  (* The current generation's updates from LSN [from] on ([None] when
     the log no longer reaches back that far).  The update lock pins the
     log file and its first LSN without blocking enquiries. *)
  let fold_current t ?from ~init ~f () =
    check_usable t;
    Vlock.with_lock t.lock Vlock.Update (fun () ->
        let base = t.lsn - Wal.Writer.entries t.wal in
        let from = Option.value from ~default:base in
        if from < base then None
        else
          match
            fold_updates t.fs ~policy:Wal.Reader.Stop_at_damage ~first:base
              ~log:(Store.log_file t.generation) ~init ~lsn:from f
          with
          | Ok (acc, _, _) -> Some acc
          | Error e -> Fs.io_fail ~op:"read" e)

  let fold_log t ~init ~f = Option.get (fold_current t ~init ~f ())

  let log_suffix t ~from =
    fold_current t ~from ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) ()
    |> Option.map List.rev

  module History = struct
    (* The archive is usable only when it is contiguous from the very
       first generation and meets the current log exactly: archive logs
       0..g-1 followed by the live log of generation g, each with its
       first LSN when recorded (unrecorded logs never overlap). *)
    let plan t =
      let archives = Store.archived_logs t.fs in
      let expected = List.init (List.length archives) Fun.id in
      if List.map fst archives <> expected then
        Error "history: archive is not contiguous from generation 0"
      else if List.length archives <> t.generation then
        Error
          (Printf.sprintf
             "history: %d archived logs but current generation is %d (archiving \
              was off at some point)"
             (List.length archives) t.generation)
      else
        let live = t.lsn - Wal.Writer.entries t.wal in
        match List.map (fun (n, log) -> (log, Store.log_base t.fs n)) archives with
        | archived -> Ok (archived @ [ (Store.log_file t.generation, Some live) ])
        | exception ((Fs.Read_error _ | Fs.Io_error _) as e) ->
          Error ("history: log base unreadable: " ^ Fs.describe_exn e)

    let fold_all t ~init ~f =
      check_usable t;
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          let live = Store.log_file t.generation in
          let fold_log acc (log, first) =
            Result.bind acc (fun (acc, next) ->
                match
                  fold_updates t.fs ~policy:Wal.Reader.Stop_at_damage ?first ~log
                    ~init:acc ~lsn:next f
                with
                | Error e -> Error ("history: " ^ e)
                (* Damage or truncation in an archive is corruption of
                   history, not a recoverable tail. *)
                | Ok (_, _, o)
                  when o.Wal.Reader.stopped_early <> None
                       && not (String.equal log live) ->
                  Error (Printf.sprintf "history: archived log %s is damaged" log)
                | Ok (acc, next, _) -> Ok (acc, next))
          in
          Result.bind (plan t) (List.fold_left fold_log (Ok (init, 0))))

    let fold t ~init ~f =
      Result.bind (fold_all t ~init ~f) (fun (acc, lsn) ->
          if lsn = t.lsn then Ok acc
          else
            Error
              (Printf.sprintf "history: trail holds %d updates but lsn is %d" lsn t.lsn))

    let available t = Result.is_ok (fold t ~init:() ~f:(fun () _ _ -> ()))

    let state_at t ~lsn =
      if lsn < 0 || lsn > t.lsn then
        Error (Printf.sprintf "history: lsn %d outside [0, %d]" lsn t.lsn)
      else
        Result.bind
          (fold_all t ~init:(App.init ()) ~f:(fun state at u ->
               if at < lsn then App.apply state u else state))
          (fun (state, total) ->
            if total < lsn then Error "history: trail shorter than requested lsn"
            else Ok state)
  end

  let close t =
    if not t.closed then begin
      stop_scrubber t;
      (* A checkpoint in flight finishes first, so none commits behind
         a closed instance. *)
      Sdb_check.Mu.with_lock t.ckpt_mutex @@ fun () ->
      Vlock.acquire t.lock Vlock.Update;
      (* a non-Io_error exception from the WAL close (e.g. an injected
         fault) must not strand the Update mode *)
      Fun.protect
        ~finally:(fun () -> Vlock.release t.lock Vlock.Update)
        (fun () ->
          t.closed <- true;
          try Wal.Writer.close t.wal with Fs.Io_error _ -> ())
    end
  [@@sdb.acquires update]

  let open_ ?(config = default_config) fs =
    match
      Store.recover ~archive_logs:config.archive_logs
        ~retain_previous:config.retain_previous fs
    with
    | Error e -> Error e
    | Ok None -> create_fresh fs config
    | Ok (Some rcv) -> (
      match restore fs config rcv with
      | Error e -> Error e
      | Ok t ->
        (* After a hard-error restore the current checkpoint file is
           damaged; write a fresh consistent generation right away. *)
        if t.recovery.used_previous_generation then checkpoint t;
        Ok t)

  let open_exn ?config fs =
    match open_ ?config fs with Ok t -> t | Error e -> failwith e

  (* §7's "multiple log files" option: one ordinary engine per
     partition, each over the [part<k>-] view of the store.  The only
     shared fact on disk is the partition count, committed with the
     same write-new-then-rename discipline as the [version] file once
     every partition exists. *)
  module Partitioned = struct
    type db = t
    type nonrec t = db array

    let count_file = "partitions"
    let new_count_file = "newpartitions"

    let open_ ?config ~partitions fs =
      if partitions < 1 then
        invalid_arg "Smalldb.Partitioned.open_: partitions must be positive";
      let stored =
        if fs.Fs.exists count_file then
          match Fs.read_file fs count_file with
          | exception (Fs.Read_error _ | Fs.Io_error _) -> Some None
          | count -> Some (int_of_string_opt (String.trim count))
        else None
      in
      match stored with
      | Some None -> Error "partitioned store: partitions file unreadable"
      | Some (Some n) when n <> partitions ->
        Error
          (Printf.sprintf "partitioned store has %d partitions, %d requested" n
             partitions)
      | Some (Some _) | None -> (
        let opened = ref [] in
        let rec open_from k =
          if k = partitions then Ok (Array.of_list (List.rev !opened))
          else
            match open_ ?config (Fs.sub fs (Printf.sprintf "part%d-" k)) with
            | Error e -> Error (Printf.sprintf "partition %d: %s" k e)
            | Ok db ->
              opened := db :: !opened;
              open_from (k + 1)
        in
        match open_from 0 with
        | Ok t ->
          if stored = None then begin
            Fs.write_file fs new_count_file (string_of_int partitions);
            fs.Fs.rename new_count_file count_file
          end;
          Ok t
        | Error _ as e ->
          List.iter close !opened;
          e
        | exception e ->
          List.iter close !opened;
          raise e)

    let open_exn ?config ~partitions fs =
      match open_ ?config ~partitions fs with Ok t -> t | Error e -> failwith e

    let partition t k =
      if k < 0 || k >= Array.length t then
        invalid_arg (Printf.sprintf "Smalldb.Partitioned: partition %d out of range" k);
      t.(k)

    let checkpoint_next t =
      let log_bytes = Array.map (fun db -> (stats db).log_bytes) t in
      let largest = ref 0 in
      Array.iteri (fun k b -> if b > log_bytes.(!largest) then largest := k) log_bytes;
      checkpoint t.(!largest)

    let close t = Array.iter close t
  end
end
