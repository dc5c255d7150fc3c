(** The main-memory database engine with checkpoint + redo log.

    This is the paper's design (§3): the database is an ordinary typed
    data structure in (virtual) memory; its disk counterpart is a
    checkpoint of some previous consistent state plus a log recording
    each subsequent update.  Enquiries touch only memory.  An update
    (1) verifies its preconditions against the in-memory state,
    (2) records its parameters as a log entry — one disk write, the
    commit point — and (3) applies itself to the in-memory state.
    Restart loads the checkpoint and replays the log.

    Concurrency follows the paper's three-mode locking: enquiries hold
    a shared lock; steps (1) and (2) run under the update lock — so
    enquiries keep running during the disk write — and only step (3)
    upgrades to exclusive; a checkpoint holds the update lock for its
    whole duration.  Concurrent updates share step (2): one log write
    and one fsync commit every update in flight (see {!Make.update_checked}).

    Instantiate {!Make} with an application: its state and update
    types, their pickles, and the (total, deterministic) [apply]
    function.  [apply] must succeed on any update that was committed;
    verify preconditions with {!Make.update_checked} {e before} the
    commit, never inside [apply]. *)

module type APP = sig
  type state
  type update

  val name : string
  (** Recorded in checkpoint metadata; distinguishes stores. *)

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
  read_path : [ `Locked | `Epoch ];
      (** [`Locked] (the default): every enquiry holds the Vlock in
          Shared mode — the paper's protocol, and the baseline.
          [`Epoch]: enquiries run lock-free against an epoch-published
          snapshot ([Sdb_epoch]): the writer swings an atomic version
          pointer inside its Exclusive window, a reader enters an
          epoch, loads the pointer, and queries that immutable version
          with no lock traffic at all; retired versions are reclaimed
          once every reader has moved past them.  {b Requires
          [App.state] to be persistent} (path-copied, like
          [Ns_data.pnode] or a [Map]) — a mutable state would be
          shared, bare, with readers in other domains.  WAL,
          commit groups, checkpointing and replication are unchanged;
          the fsync remains the commit point, and a version is
          published only after it commits. *)
}

val default_config : config
(** [retain_previous = false], [Manual], [`Stop_at_damage],
    [hard_error_fallback = true], [archive_logs = false],
    [read_path = `Locked].

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
  (** Run an enquiry under the shared lock.  The function must not
      mutate the state and must not call back into this [t] (the lock
      is not re-entrant: a nested acquire can deadlock against a
      pending upgrade). *)

  val query_with_lsn : t -> (App.state -> 'a) -> 'a * int
  (** Like {!query} but also returns the LSN the answer reflects, read
      under the same lock hold — the consistent (snapshot, position)
      pairs replication is built from. *)

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
      joins a group that is already forming; it waits for that group
      to be sealed and then verifies against its applied result.)

      Exception safety (poison-vs-release, see DESIGN.md): a
      [precondition] or pickler that {e raises} propagates with the
      lock released and the engine untouched and usable — nothing
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
  (** Write a checkpoint and reset the log.  Holds the update lock for
      the duration (enquiries proceed, updates wait).

      Runs out of disk space cleanly: {!Sdb_storage.Fs.No_space} before
      the commit point scraps the partial new generation and leaves the
      engine fully usable on the old one (no poison).  A successful
      checkpoint also exits {!Degraded} mode, since the fresh empty log
      is what reclaims space. *)

  val checkpoint_concurrent : t -> unit
  (** A fuzzy checkpoint that does {e not} exclude updates while the
      state is pickled — addressing the paper's first availability
      limitation (§7: "the time required for making a checkpoint (when
      updates are excluded)").

      Three phases: grab the state pointer and LSN under a brief shared
      lock; pickle and write the checkpoint file with {e no} lock held;
      then, under a brief update lock, start the new generation's log,
      copy into it the few entries committed while pickling ran, and
      commit the switch.  Update unavailability is proportional to the
      updates that arrived during the pickle, not to the database size.

      Requires [App.state] to be {e immutable}: [apply] must return a
      new value and never mutate its argument, or the pickled snapshot
      would tear.  (The paper's hash-table name server does not
      qualify; a [Map]-based application does.)  Incompatible with
      [archive_logs] (the copied tail would duplicate history);
      raises [Invalid_argument] in that configuration. *)

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
      log cross-checked against the live state.  Runs under the same
      lock discipline as a blocking checkpoint: enquiries keep running,
      updates and checkpoints wait.

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
        across all archived logs and the current one. *)

    val state_at : t -> lsn:int -> (App.state, string) result
    (** Reconstruct the database as it stood after the first [lsn]
        updates — time travel by replaying the audit trail into a fresh
        [App.init] state. *)
  end

  val close : t -> unit
  (** Close file handles.  No checkpoint is taken; the log is the
      authoritative tail, exactly as after a crash. *)
end
