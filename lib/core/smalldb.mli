(** The main-memory database engine with checkpoint + redo log.

    This is the paper's design (§3): the database is an ordinary typed
    data structure in (virtual) memory; its disk counterpart is a
    checkpoint of some previous consistent state plus a log recording
    each subsequent update.  Enquiries touch only memory.  An update
    (1) verifies its preconditions against the in-memory state,
    (2) records its parameters as a log entry — one disk write, the
    commit point — and (3) applies itself to the in-memory state.
    Restart loads the checkpoint and replays the log.

    Concurrency follows the paper's three-mode locking: steps (1) and
    (2) run under the update lock — so enquiries keep running during
    the disk write — and only step (3) upgrades to exclusive.
    Concurrent updates share step (2): one log write and one fsync
    commit every update in flight (see {!Make.update_checked}).  How
    enquiries read and what a checkpoint excludes follow from one
    declaration, {!APP.state_kind}.

    Instantiate {!Make} with an application: its state and update
    types, their pickles, the kind of its state, and the (total,
    deterministic) [apply] function.  [apply] must succeed on any
    update that was committed; verify preconditions with
    {!Make.update_checked} {e before} the commit, never inside
    [apply]. *)

module type APP = sig
  type state
  type update

  val name : string
  (** Recorded in checkpoint metadata; distinguishes stores. *)

  val state_kind : [ `Persistent | `Mutable ]
  (** [`Persistent]: [apply] never mutates its argument but returns a
      new version sharing what it did not touch (a [Map], a
      path-copied tree).  Enquiries read the latest committed version
      lock-free ([Sdb_epoch]); a checkpoint snapshots it in O(1).
      [`Mutable]: [apply] may change the state in place (a [Hashtbl],
      the paper's case).  Enquiries hold the lock in Shared mode and a
      checkpoint pickles under the update lock.  Declaring a mutable
      state [`Persistent] is a data race; under [SDB_SANITIZE=1] a
      checkpoint that finds its snapshot changed reports an ["epoch"]
      violation.  Stores do not record the kind. *)

  val codec_state : state Sdb_pickle.Pickle.t
  val codec_update : update Sdb_pickle.Pickle.t

  val init : unit -> state
  (** The state of a freshly created (empty) database. *)

  val apply : state -> update -> state
  (** Total and deterministic: replaying the same updates from the same
      state must rebuild the same state.  May mutate and return its
      argument or return a new value. *)
end

type checkpoint_policy =
  | Manual  (** only explicit {!Make.checkpoint} calls *)
  | Every_n_updates of int
  | Log_bytes_exceeds of int
      (** checkpoint when the log file outgrows this size *)

type config = {
  retain_previous : bool;
      (** keep one previous checkpoint + log for hard-error recovery
          (§4); costs disk space, nothing else *)
  policy : checkpoint_policy;
  log_recovery : [ `Stop_at_damage | `Skip_damaged ];
      (** [`Skip_damaged] is the §4 option of ignoring just a damaged
          log entry; sound only if the application's updates are
          independent *)
  hard_error_fallback : bool;
      (** when the current checkpoint is unreadable, restore from the
          retained previous generation: load the previous checkpoint,
          replay the previous log, then replay the current log (§4) *)
  archive_logs : bool;
      (** keep superseded logs as [archive-logfile<N>] — §4's complete
          audit trail, consumed through {!Make.History} *)
}

val default_config : config
(** [retain_previous = false], [Manual], [`Stop_at_damage],
    [hard_error_fallback = true], [archive_logs = false].

    There is no commit tuning: every update commits through one group
    coordinator (DESIGN.md §4d) whose linger is bounded by the engine's
    own last measured log flush, not by a configured delay. *)

(** Cumulative per-phase timings (seconds) backing the E2/E3/E4 cost
    breakdowns; maintained with two clock reads per phase. *)
type phase_times = {
  verify_s : float;  (** precondition evaluation (explore) *)
  pickle_s : float;  (** update-parameter pickling *)
  log_s : float;  (** log append + fsync *)
  apply_s : float;  (** in-memory mutation *)
  ckpt_pickle_s : float;
  ckpt_write_s : float;
  restore_s : float;  (** checkpoint read + unpickle at open *)
  replay_s : float;  (** log replay at open *)
}

type recovery_info = {
  replayed : int;  (** log entries re-applied at open *)
  skipped_damaged : int;
  log_tail_discarded : bool;
      (** a torn/partial trailing entry was found and dropped *)
  used_previous_generation : bool;
  completed_switch : bool;  (** finished a crashed checkpoint install *)
  removed_files : string list;
}

type stats = {
  generation : int;  (** current checkpoint version number *)
  lsn : int;  (** total updates committed over the store's lifetime *)
  updates_committed : int;  (** since this open *)
  checkpoints_written : int;  (** since this open *)
  log_entries : int;
  log_bytes : int;
  phase : phase_times;
  recovery : recovery_info;
}

exception Poisoned
(** The instance observed a failure after a commit point (e.g. [apply]
    raised on a committed update, the log fsync failed with an unknown
    number of bytes already durable — the fsyncgate rule: a failed
    fsync is never retried — or the backing store crashed); memory may
    disagree with disk, so every subsequent operation refuses.
    Re-open the store to recover. *)

exception Closed

exception Degraded of string
(** The engine is in read-only mode after running out of disk space:
    the failing log append was all-or-nothing, so nothing committed and
    memory still equals disk — enquiries keep being served, updates
    raise this.  The engine exits automatically: once a backoff timer
    expires, the next update attempt first tries a checkpoint, which
    resets the log to empty and deletes the superseded generation (the
    only operation in this design that reclaims space).  See DESIGN.md
    §4c for the full failure taxonomy. *)

type health = [ `Healthy | `Degraded of string | `Poisoned ]

type scrub_finding = {
  file : string;  (** store-relative file name *)
  offset : int;
      (** byte offset of the damage ([-1] for whole-state findings such
          as a digest mismatch) *)
  reason : string;
}

type scrub_report = {
  scanned_files : string list;
  findings : scrub_finding list;
  replay_consistent : bool;
      (** the checkpoint decoded, the log replayed cleanly into it up
          to the in-memory LSN, and (when a digest was supplied) the
          replayed state digests equal to memory *)
  repaired : bool;  (** a fresh generation was written over the damage *)
  scrub_duration_s : float;
}

module Make (App : APP) : sig
  type t

  val open_ : ?config:config -> Sdb_storage.Fs.t -> (t, string) result
  (** Open or create the database in [fs]'s directory, running crash
      recovery as needed. *)

  val open_exn : ?config:config -> Sdb_storage.Fs.t -> t

  val query : t -> (App.state -> 'a) -> 'a
  (** Run an enquiry: against the latest published version, lock-free,
      for a [`Persistent] state; under the shared lock for a
      [`Mutable] one.  The function must not mutate the state and must
      not call back into this [t] (the lock is not re-entrant: a
      nested acquire can deadlock against a pending upgrade). *)

  val query_with_lsn : t -> (App.state -> 'a) -> 'a * int
  (** Like {!query} but also returns the LSN the answer reflects, from
      the same version (or the same lock hold) — the consistent
      (snapshot, position) pairs replication is built from. *)

  val update : t -> App.update -> unit
  (** Commit and apply one update.  Alone it costs one log write and
      one fsync; concurrent callers share them (see {!update_checked}). *)

  val update_checked :
    t -> precondition:(App.state -> (unit, 'e) result) -> App.update ->
    (unit, 'e) result
  (** The paper's three-step update: the precondition runs under the
      update lock before anything is logged; if it fails, the database
      is untouched and no disk write happens.

      Every update commits through one group coordinator (DESIGN.md
      §4d): concurrent callers share one log write and one fsync, and
      commit in a single serial order with dense LSNs.  Preconditions
      are serial: [precondition] sees the state with every update
      committed before this one applied — never a state that misses an
      update staged ahead of it.  (A checked update therefore never
      joins a group that is already forming: it opens one of its own,
      closing the forming one to joiners, and verifies when its group
      is sealed.  Groups commit in formation order, so a flood of
      plain updates keeps it waiting for at most two groups.)

      Exception safety (poison-vs-release, see DESIGN.md): a
      [precondition] or pickler that {e raises} propagates with the
      lock released and the engine usable — nothing of this update
      reached the disk — and fails only this call.  A failure in the
      log append or fsync fails every member of the group with the
      §4b/§4c taxonomy: [Degraded] on no-space (nothing committed,
      engine read-only), the cause itself on a write the log rolled
      back (engine usable), {!Poisoned} after a failed fsync — the
      thread that ran the fsync sees the raw failure.  A failing
      [App.apply] poisons.  The lock is released on every path.  A
      raising subscriber propagates to the caller whose thread ran the
      notification, after the group is already durable and applied,
      with no lock held. *)

  val update_batch : t -> App.update list -> unit
  (** One caller, many updates — §5's "multiple commit records in a
      single log entry".  The batch joins the forming group as a single
      member: its entries stay contiguous in the log and go to disk in
      the group's one write and one fsync.  Same exception-safety
      contract as {!update_checked}.  An empty batch commits nothing. *)

  val checkpoint : t -> unit
  (** Write a checkpoint and start a new log in three phases, so that
      updates are excluded only as long as the state kind requires
      (§7's first availability limit):
      + under the update lock, capture the snapshot, its LSN and log
        offset: a [`Persistent] state itself (O(1)), a [`Mutable] one's
        pickle;
      + with no lock held, pickle a persistent snapshot, write and
        fsync the checkpoint, create the new log;
      + under the update lock, copy the entries committed since the
        snapshot into the new log and commit the switch.

      Enquiries run throughout.  The new log opens with the updates
      the checkpoint does not cover; with [archive_logs] or
      [retain_previous] its first LSN is recorded, so {!History} and
      the hard-error fallback skip what the older log also holds.

      {!Sdb_storage.Fs.No_space} before the commit point scraps the new
      generation and leaves the engine usable on the old one; an engine
      poisoned meanwhile raises {!Poisoned} before the switch; a
      successful checkpoint exits {!Degraded} mode, since the fresh log
      is what reclaims space.  Under a checkpoint policy the updater
      whose group crosses the threshold checkpoints after leaving the
      commit slot, so the next group commits meanwhile; it does not
      wait for a checkpoint already in progress. *)

  val stats : t -> stats

  val health : t -> health
  (** Never raises (usable on a poisoned instance). *)

  (** {2 Integrity scrubbing}

      §4 assumes hard errors are {e noticed}; the scrubber notices them
      online instead of at the next restart. *)

  val scrub :
    ?repair:bool -> ?digest:(App.state -> string) -> t -> scrub_report
  (** Re-read the current (and retained previous) checkpoint + log and
      verify them end to end: a page-wise media scan of every file, a
      CRC check of every log frame, and a shadow replay of checkpoint +
      log cross-checked against the live state.  Holds the update lock
      while it reads: enquiries keep running, updates and checkpoints
      wait.

      [digest] enables the memory cross-check; it must be {e canonical}
      (equal states give equal strings — a plain pickle of a hash table
      is not, since its iteration order depends on insertion history).

      With [repair:true] and damage found, the engine self-repairs by
      writing a fresh checkpoint from the known-good in-memory state
      (§4's consistency restoration, automated) and removing the
      damaged files; a subsequent scrub is clean.  Repair is skipped
      (report says [repaired = false]) when the disk is too full to
      write the new generation.

      Raises {!Poisoned}/{!Closed}; never {!Degraded} (a degraded
      engine can and should be scrubbed — a successful repair
      checkpoint also exits degraded mode). *)

  val last_scrub : t -> scrub_report option
  (** The most recent report, however produced (direct call, RPC, or
      the background scrubber). *)

  val start_scrubber :
    ?interval:float -> ?repair:bool -> ?digest:(App.state -> string) -> t ->
    unit
  (** Run {!scrub} on a background thread every [interval] seconds
      (default 60, [repair] defaults to [true]).  The thread stops
      itself when the instance is closed or poisoned; {!close} also
      stops it.  Raises [Invalid_argument] if already running. *)

  val stop_scrubber : t -> unit
  (** Stop and join the background scrubber (idempotent). *)

  (** {2 Update subscriptions}

      Observers of the committed update stream — what replication's
      eager propagation (§4) hangs off, without wrapping every update
      call site. *)

  type subscription

  val subscribe : t -> (int -> App.update -> unit) -> subscription
  (** The callback runs after each commit and its in-memory apply, with
      no engine lock held, in commit order, receiving the update's LSN.
      It may query this [t] but must not update it (re-entrant updates
      would reorder the stream it is observing).  An exception from the
      callback propagates to the updater — the update itself is already
      durable and applied. *)

  val unsubscribe : t -> subscription -> unit

  val fold_log : t -> init:'acc -> f:('acc -> int -> App.update -> 'acc) -> 'acc
  (** Audit trail (§4): fold over the current generation's committed
      updates with their LSNs. *)

  val log_suffix : t -> from:int -> (int * App.update) list option
  (** The committed updates with LSN ≥ [from], if the current
      generation's log still covers that point; [None] once a
      checkpoint has absorbed it (the caller must fall back to a full
      state transfer).  Used by replica catch-up. *)

  (** The complete audit trail (§4: "the log files form a complete
      audit trail for the database, and could be retained if desired").
      Requires the store to have run with [archive_logs = true] since
      creation, so that every update since LSN 0 is still on disk. *)
  module History : sig
    val available : t -> bool
    (** True when the archive is contiguous from LSN 0 to the current
        log (i.e. no history has been deleted). *)

    val fold :
      t -> init:'acc -> f:('acc -> int -> App.update -> 'acc) ->
      ('acc, string) result
    (** Every committed update of the store's lifetime, in LSN order,
        across all archived logs and the current one, each exactly
        once: where a log opens with entries its predecessor also holds
        (see {!checkpoint}), the repeats are skipped. *)

    val state_at : t -> lsn:int -> (App.state, string) result
    (** Reconstruct the database as it stood after the first [lsn]
        updates — time travel by replaying the audit trail into a fresh
        [App.init] state. *)
  end

  val close : t -> unit
  (** Close file handles, after a checkpoint in flight.  No checkpoint
      is taken; the log is the authoritative tail, exactly as after a
      crash. *)

  (** A larger database split into independent partitions for the
      purpose of writing checkpoints — §7: "we could either use
      multiple log files or a single log file with more complicated
      rules for flushing the log".  This is the multiple-log-files
      option: each partition is an ordinary engine with its own
      checkpoint and log, stored under the [part<k>-] name prefix of
      the one {!Sdb_storage.Fs.t} (see {!Sdb_storage.Fs.sub}).  A
      partition therefore commits, checkpoints, recovers, degrades and
      scrubs exactly like a single store, and a failure or a long
      precondition in one partition never holds up another.  An update
      touches one partition; there are no cross-partition
      transactions.  The store records only its partition count, in a
      [partitions] file. *)
  module Partitioned : sig
    type engine := t
    type t

    val open_ :
      ?config:config -> partitions:int -> Sdb_storage.Fs.t -> (t, string) result
    (** Create [partitions] empty partitions, or recover each one.
        Every partition runs with [config], so automatic checkpointing
        comes from each partition's own [policy].  The count is fixed
        at creation: reopening with another count is an [Error].
        Raises [Invalid_argument] unless [partitions] is positive. *)

    val open_exn :
      ?config:config -> partitions:int -> Sdb_storage.Fs.t -> t

    val partition : t -> int -> engine
    (** The engine of partition [k]; query, update, checkpoint, scrub
        and inspect it like any single store.  Raises
        [Invalid_argument] when [k] is out of range. *)

    val checkpoint_next : t -> unit
    (** Checkpoint the partition holding the most log bytes (ties go
        to the lowest index).  Calling this periodically bounds every
        partition's replay debt without ever pickling the whole
        database at once. *)

    val close : t -> unit
    (** Close every partition. *)
  end
end
