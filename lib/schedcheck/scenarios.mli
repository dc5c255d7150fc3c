(** The engine's small critical sections, modeled for {!Schedcheck}.

    Each function builds a fresh scenario per call (explorations re-run
    it once per schedule).  The lock scenarios run the {e real}
    protocol — [Sdb_vlock.Vlock_core.Make] instantiated over the harness's
    virtual primitives — so what is exhausted here is the code the
    engine ships.  The group-commit and replica-outbox scenarios are
    small faithful models of the coordinator and sender-thread
    hand-off in [lib/core] and [lib/replica]. *)

module Vsync : Sdb_vlock.Vlock_core.SYNC
(** {!Sdb_vlock.Vlock_core.SYNC} over the harness's virtual mutex/cond/self. *)

module V : Sdb_vlock.Vlock_core.S
(** The engine's lock protocol under the virtual scheduler. *)

val recursive_read : legacy:bool -> unit -> Schedcheck.scenario
(** One reader taking a nested Shared hold, racing one
    update-then-upgrade writer.  With [legacy:true] (the pre-fix gate:
    every Shared acquisition parks behind a pending upgrade) the
    explorer finds the recursive-read deadlock; with [legacy:false] the
    bounded space passes exhaustively. *)

val fresh_reader_gate : unit -> Schedcheck.scenario
(** A registered reader re-entering {e and} a first-time reader, racing
    an upgrader: re-entry must pass the pending-upgrade gate, a
    first-time acquisition must not be admitted while the upgrade
    drains. *)

val upgrade_vs_readers : readers:int -> unit -> Schedcheck.scenario
(** Readers observing a two-step mutation that the writer performs
    under Exclusive (after the §3 update-then-upgrade dance): no torn
    observation in any interleaving, no deadlock, registry in sync. *)

val upgrade_vs_readers_broken : unit -> Schedcheck.scenario
(** Detector of the detector: the writer mutates under Update without
    upgrading.  The explorer must find a schedule where a reader
    observes the torn intermediate state. *)

val group_commit : updaters:int -> unit -> Schedcheck.scenario
(** The commit coordinator (DESIGN.md §4d): verify and join a forming
    group under Update, leader claims the ordered commit slot, lingers
    by the shipped exit rule (looks again only while an updater is
    queued on Update or the group is smaller than the last one, never
    while a checked updater awaits the seal; a bound on looks stands in
    for the last-flush deadline), seals under Update, flushes once,
    upgrades to apply with dense LSNs, wakes parked members.  The last
    updater is checked: it never joins a non-empty group but waits for
    the seal and retries, and its verify, reading the shared state
    under Update, must see every update staged before it.  Checks:
    serial verification, one flush per group, commit-slot exclusivity,
    dense LSN assignment, every member woken with an outcome, Update
    released at the end.  Update is a one-step token here; the lock
    scenarios above exhaust the Vlock protocol itself. *)

val group_commit_unserial : unit -> Schedcheck.scenario
(** Detector of the detector: two updaters, the checked one joining a
    forming group like any other.  The explorer must find a schedule
    where its verify misses an update staged before it. *)

val replica_outbox : pushes:int -> capacity:int -> unit -> Schedcheck.scenario
(** The bounded per-peer outbox hand-off ([lib/replica]): a committer
    enqueues (dropping on overflow) and wakes the sender; the sender
    drains, sending outside the mutex, and must observe the stop flag.
    Checks: FIFO delivery, delivered + dropped = pushed, clean
    shutdown in every interleaving (a missed wakeup shows up as a
    deadlock). *)

val epoch_readers : publishes:int -> unit -> Schedcheck.scenario
(** The lock-free read path's reclamation protocol
    ([Sdb_epoch.Epoch_core.Make] — the shipped code, over virtual
    atomics): one reader entering its epoch, loading the published
    version and using it across a scheduling point, racing a writer
    that publishes [publishes] fresh versions (retiring and reclaiming
    as the engine's Exclusive window does).  Checks, in every
    interleaving: no torn read (a version is observed whole or not at
    all), payload consistent with the version's LSN, no use-after-retire
    (a version is never reclaimed while a reader that loaded it is
    still inside its epoch), and — once the reader drains — one final
    sweep reclaims every retired version. *)

val epoch_shared_slot : unit -> Schedcheck.scenario
(** Two readers sharing one reader slot (the counted-registration path:
    the second enter piggybacks on the first's — possibly older —
    epoch), racing one publish.  Exhausts the enter/exit counting
    against concurrent retirement: one reader loads and checks its
    version, the other races pure enter/exit bracketing. *)

val epoch_broken_reclaim : unit -> Schedcheck.scenario
(** Detector of the detector: the writer frees retired versions without
    honouring the reader slots ([unsafe_reclaim_all]).  The explorer
    must find a schedule where a reader still inside its epoch observes
    its version reclaimed. *)

val epoch_broken_mutation : unit -> Schedcheck.scenario
(** Detector of the detector, torn-read edition: the writer mutates the
    published payload in place instead of publishing a fresh immutable
    version.  The explorer must find a schedule where a reader observes
    the half-written state. *)

val failure_detector : probes:bool list -> unit -> Schedcheck.scenario
(** The replica failure detector ([Sdb_replica.Detector] — the shipped
    code, not a model): a prober running the scripted heartbeat
    outcomes (with a scheduling point while each probe is in flight)
    races a ticker advancing virtual time.  Checks, in every
    interleaving: the only transitions into [Alive] are probe
    successes (a dead peer never revives by aging), aging and failures
    strictly demote (suspicion is never lost while a probe is in
    flight), and a run whose last recorded outcome is not a success
    does not end [Alive]. *)
