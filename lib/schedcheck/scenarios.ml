(* The engine's critical sections under the virtual scheduler.  The
   lock scenarios instantiate Sdb_vlock.Vlock_core.Make over Schedcheck's
   primitives, so the protocol being exhausted is the one the engine
   ships; the group-commit and outbox scenarios model the coordinator
   and sender hand-off from lib/core and lib/replica at the same
   granularity their mutexes give them. *)

open Sdb_vlock.Vlock_core

module Vsync = struct
  type mutex = Schedcheck.Mutex.t
  type cond = Schedcheck.Cond.t

  let counter = ref 0

  let make_mutex () =
    incr counter;
    Schedcheck.Mutex.create (Printf.sprintf "vlock.mutex/%d" !counter)

  let make_cond () =
    incr counter;
    Schedcheck.Cond.create (Printf.sprintf "vlock.changed/%d" !counter)

  let lock = Schedcheck.Mutex.lock
  let unlock = Schedcheck.Mutex.unlock
  let wait = Schedcheck.Cond.wait
  let broadcast = Schedcheck.Cond.broadcast
  let self = Schedcheck.self
end

module V = Sdb_vlock.Vlock_core.Make (Vsync)

let check cond msg = if not cond then failwith msg

(* Holds after every step of every schedule. *)
let lock_invariant v () =
  let i = V.inspect v in
  check
    (not (i.i_exclusive && i.i_readers > 0))
    "vlock: exclusive held while readers active";
  check
    (not (i.i_exclusive && i.i_update))
    "vlock: exclusive and update held simultaneously";
  check (i.i_hold_sum = i.i_readers)
    "vlock: reader registry out of sync with n_readers";
  check (i.i_readers >= 0) "vlock: negative reader count"

(* Holds once every modeled thread has completed. *)
let drained v () =
  let i = V.inspect v in
  check
    (i.i_readers = 0 && (not i.i_update) && (not i.i_exclusive)
    && (not i.i_upgrade_pending)
    && i.i_hold_sum = 0)
    "vlock: not fully released at end"

(* ------------------------------------------------------------------ *)

let recursive_read ~legacy () =
  let v = V.create ~legacy_recursive_block:legacy () in
  let reader () =
    V.acquire v Shared;
    Schedcheck.yield "reading";
    (* The enquiry path re-entering Shared — under the legacy gate this
       parks behind the upgrader's pending upgrade while the upgrader
       drains this very thread: the deadlock of ISSUE 7. *)
    V.acquire v Shared;
    V.release v Shared;
    V.release v Shared
  in
  let upgrader () =
    V.acquire v Update;
    V.upgrade v;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(drained v)
    [ ("reader", reader); ("upgrader", upgrader) ]

let fresh_reader_gate () =
  let v = V.create () in
  let admitted_mid_drain = ref false in
  let nested () =
    V.acquire v Shared;
    Schedcheck.yield "between holds";
    V.acquire v Shared;
    V.release v Shared;
    V.release v Shared
  in
  let fresh () =
    V.acquire v Shared;
    (* Runs atomically with the admission: a first-time reader admitted
       while the upgrade is still draining would observe the flag. *)
    if (V.inspect v).i_upgrade_pending then admitted_mid_drain := true;
    V.release v Shared
  in
  let upgrader () =
    V.acquire v Update;
    V.upgrade v;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(fun () ->
      drained v ();
      check
        (not !admitted_mid_drain)
        "vlock: first-time reader admitted during an upgrade drain")
    [ ("nested", nested); ("fresh", fresh); ("upgrader", upgrader) ]

let upgrade_vs_readers ~readers () =
  let v = V.create () in
  let data = ref 0 in
  let reader name () =
    V.acquire v Shared;
    let a = !data in
    Schedcheck.yield "between reads";
    let b = !data in
    V.release v Shared;
    check (a = b) (name ^ ": torn read (value changed under Shared)");
    check (a mod 2 = 0) (name ^ ": observed odd intermediate state")
  in
  let writer () =
    V.acquire v Update;
    (* Reads may proceed here — that is the point of Update. *)
    Schedcheck.yield "deliberating";
    V.upgrade v;
    incr data;
    Schedcheck.yield "mid-mutation";
    incr data;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(fun () ->
      drained v ();
      check (!data = 2) "writer: both increments applied")
    (List.init readers (fun i ->
         let name = Printf.sprintf "reader%d" i in
         (name, reader name))
    @ [ ("writer", writer) ])

let upgrade_vs_readers_broken () =
  let v = V.create () in
  let data = ref 0 in
  let reader () =
    V.acquire v Shared;
    let a = !data in
    Schedcheck.yield "between reads";
    let b = !data in
    V.release v Shared;
    check (a = b) "reader: torn read (mutation under Update, no upgrade)";
    check (a mod 2 = 0) "reader: observed odd intermediate state"
  in
  let writer () =
    (* The bug this scenario must catch: mutating without the upgrade. *)
    V.acquire v Update;
    incr data;
    Schedcheck.yield "mid-mutation";
    incr data;
    V.release v Update
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    [ ("reader", reader); ("writer", writer) ]

(* ------------------------------------------------------------------ *)

(* The commit coordinator of lib/core (DESIGN.md §4d).  The last
   updater is checked: its verify reads the shared state under Update,
   so it must never join a forming group — it waits until that group
   is sealed and retries.  The leader's linger is modeled with its exit
   rule: it looks again while a group member may still come (an
   updater queued on Update, or a group smaller than the last one)
   unless a checked updater awaits the seal; a bound on looks stands in
   for the last-flush deadline.  The Update lock is a one-step token here (the
   lock scenarios above exhaust the Vlock protocol itself), which keeps
   the space small enough to exhaust at three updaters.  With
   [serial:false] the checked updater joins like any other — the bug
   the serial rule exists to prevent. *)
type model_group = {
  mutable mg_members : int list;  (* join order *)
  mutable mg_sealed : bool;
  mutable mg_awaited : bool;
}

let linger_looks = 2

let group_commit_model ~serial ~updaters () =
  let update_held = ref false and update_queued = ref 0 in
  (* Take Update and run [f] under it as one scheduling point: between
     acquiring Update and the next blocking call the coordinator only
     touches state that Update or the gc mutex guards, so no other
     thread can observe the difference. *)
  let under_update label f =
    incr update_queued;
    Schedcheck.step label
      ~enabled:(fun () -> not !update_held)
      ~run:(fun () ->
        update_held := true;
        decr update_queued;
        f ())
  in
  let release_update () = update_held := false in
  let gc_m = Schedcheck.Mutex.create "gc.mutex" in
  let gc_c = Schedcheck.Cond.create "gc.cond" in
  let forming = ref None in
  let committing = ref false in
  let last_joined = ref 1 in
  let staged = ref 0 and applied = ref 0 in
  let next_lsn = ref 0 in
  let flushes = ref 0 in
  let groups = ref 0 in
  let lsn = Array.make updaters 0 in
  let woken = Array.make updaters false in
  let checked = updaters - 1 in
  let lead g =
    (* Claim the ordered commit slot. *)
    Schedcheck.Mutex.lock gc_m;
    while !committing do
      Schedcheck.Cond.wait gc_c gc_m
    done;
    committing := true;
    Schedcheck.Mutex.unlock gc_m;
    (* Linger, Update not held, so joiners can verify and join. *)
    let rec linger looks =
      if looks > 0 then begin
        let again = ref false in
        Schedcheck.Mutex.atomically gc_m "linger.look" (fun () ->
            again :=
              (not g.mg_awaited)
              && (List.length g.mg_members < !last_joined || !update_queued > 0));
        if !again then linger (looks - 1)
      end
    in
    linger linger_looks;
    (* Seal under Update; Update stays held through the apply. *)
    let members = ref [] in
    under_update "seal" (fun () ->
        forming := None;
        g.mg_sealed <- true;
        members := g.mg_members);
    incr groups;
    check !committing "group-commit: flush outside the commit slot";
    Schedcheck.yield "fsync";
    incr flushes;
    last_joined := List.length !members;
    List.iter
      (fun m ->
        incr next_lsn;
        incr applied;
        lsn.(m) <- !next_lsn)
      !members;
    release_update ();
    Schedcheck.Mutex.atomically gc_m "wake" (fun () ->
        committing := false;
        List.iter (fun m -> woken.(m) <- true) !members);
    Schedcheck.Cond.broadcast gc_c
  in
  let rec updater i () =
    let step = ref `Member in
    under_update "verify+join" (fun () ->
        match !forming with
        | Some g when serial && i = checked ->
          (* Never join a non-empty group. *)
          g.mg_awaited <- true;
          step := `Await g
        | _ ->
          (* Verify: reads the shared state under Update. *)
          if i = checked then
            check (!applied = !staged)
              "group-commit: checked verify missed an update staged before it";
          incr staged;
          (match !forming with
          | Some g -> g.mg_members <- g.mg_members @ [ i ]
          | None ->
            let g = { mg_members = [ i ]; mg_sealed = false; mg_awaited = false } in
            forming := Some g;
            step := `Lead g));
    release_update ();
    match !step with
    | `Await g ->
      (* Wait for the seal, then retry. *)
      Schedcheck.Mutex.lock gc_m;
      while not g.mg_sealed do
        Schedcheck.Cond.wait gc_c gc_m
      done;
      Schedcheck.Mutex.unlock gc_m;
      updater i ()
    | `Lead g -> lead g
    | `Member ->
      (* Park until the leader publishes my outcome. *)
      Schedcheck.step "park" ~enabled:(fun () -> woken.(i));
      check (lsn.(i) > 0) "group-commit: woken without an assigned LSN"
  in
  Schedcheck.scenario
    ~invariant:(fun () ->
      check (!update_queued >= 0) "group-commit: negative Update queue")
    ~finale:(fun () ->
      check (not !update_held) "group-commit: Update still held at end";
      check (not !committing) "group-commit: commit slot still held at end";
      check (!forming = None) "group-commit: members left in a forming group";
      check (!flushes = !groups) "group-commit: one flush per group violated";
      check (!next_lsn = updaters) "group-commit: LSNs not dense";
      Array.iteri
        (fun i l ->
          check (l > 0) (Printf.sprintf "group-commit: updater %d has no LSN" i);
          check woken.(i)
            (Printf.sprintf "group-commit: updater %d never woken" i))
        lsn;
      let sorted = List.sort compare (Array.to_list lsn) in
      check
        (sorted = List.init updaters (fun i -> i + 1))
        "group-commit: duplicate or out-of-range LSN")
    (List.init updaters (fun i -> (Printf.sprintf "updater%d" i, updater i)))

let group_commit ~updaters () = group_commit_model ~serial:true ~updaters ()

let group_commit_unserial () = group_commit_model ~serial:false ~updaters:2 ()

(* ------------------------------------------------------------------ *)

let replica_outbox ~pushes ~capacity () =
  let m = Schedcheck.Mutex.create "outbox.mutex" in
  let c = Schedcheck.Cond.create "outbox.cond" in
  let q = Queue.create () in
  let stop = ref false in
  let dropped = ref 0 in
  let delivered = ref [] in
  let committer () =
    for i = 1 to pushes do
      Schedcheck.Mutex.atomically m "push" (fun () ->
          if Queue.length q >= capacity then incr dropped else Queue.push i q);
      Schedcheck.Cond.broadcast c
    done;
    Schedcheck.Mutex.atomically m "stop" (fun () -> stop := true);
    Schedcheck.Cond.broadcast c
  in
  let sender () =
    let running = ref true in
    while !running do
      Schedcheck.Mutex.lock m;
      while Queue.is_empty q && not !stop do
        Schedcheck.Cond.wait c m
      done;
      if Queue.is_empty q then begin
        (* stop observed with the queue drained *)
        running := false;
        Schedcheck.Mutex.unlock m
      end
      else begin
        let x = Queue.pop q in
        Schedcheck.Mutex.unlock m;
        (* The send itself runs outside the mutex. *)
        Schedcheck.yield "send";
        delivered := x :: !delivered
      end
    done
  in
  Schedcheck.scenario
    ~finale:(fun () ->
      let d = List.rev !delivered in
      let rec mono = function
        | a :: (b :: _ as t) -> a < b && mono t
        | _ -> true
      in
      check (mono d) "outbox: out-of-order delivery";
      check
        (List.length d + !dropped = pushes)
        "outbox: delivered + dropped <> pushed")
    [ ("committer", committer); ("sender", sender) ]

(* ------------------------------------------------------------------ *)

(* Epoch-published snapshots: [Sdb_epoch.Epoch_core.Make] over virtual
   atomics — the real reclamation protocol under the virtual scheduler,
   exactly as the lock scenarios run the real Vlock.  Each atomic
   operation is one scheduling point, after which the plain-ref
   operation runs without interruption (the cooperative scheduler only
   switches at yields): sequentially-consistent atomics, dscheck
   style. *)
module Vatom = struct
  type 'a t = { mutable av : 'a }

  let make v = { av = v }

  let get c =
    Schedcheck.yield "atomic.get";
    c.av

  let exchange c x =
    Schedcheck.yield "atomic.exchange";
    let old = c.av in
    c.av <- x;
    old

  let compare_and_set c seen x =
    Schedcheck.yield "atomic.cas";
    if c.av == seen then begin
      c.av <- x;
      true
    end
    else false

  let fetch_and_add c n =
    Schedcheck.yield "atomic.faa";
    let old = c.av in
    c.av <- old + n;
    old
end

module E = Sdb_epoch.Epoch_core.Make (Vatom)

(* What a reader must observe in every interleaving, given that the
   writer publishes version k as payload (k, k) at LSN k: the pair is
   consistent (no torn read — versions are whole or not at all), the
   payload matches the version's LSN (the read_with_lsn atomicity), and
   the version is never reclaimed while the reader is still inside its
   epoch (no use-after-retire).  The yield between load and the checks
   is the reader "using" its snapshot: the window where a wrong
   reclamation protocol would free the version under it. *)
let epoch_reader_checks name v =
  let a, b = v.E.payload in
  check (a = b) (name ^ ": torn read (inconsistent payload pair)");
  check (a = v.E.vlsn) (name ^ ": payload does not match the version's LSN");
  check (not v.E.reclaimed)
    (name ^ ": use-after-retire (version reclaimed while a reader held it)")

let epoch_readers ~publishes () =
  let e = E.create ~slots:1 ~lsn:0 (0, 0) in
  let readers_done = ref 0 in
  let reader () =
    E.enter e ~slot:0;
    let v = E.load e in
    Schedcheck.yield "reading";
    epoch_reader_checks "reader" v;
    E.exit_ e ~slot:0;
    incr readers_done
  in
  let writer () =
    for k = 1 to publishes do
      (* The engine calls publish inside its Exclusive window; retire
         and reclaim ride along. *)
      E.publish e ~lsn:k (k, k)
    done;
    (* End-state sweep.  The epoch operations are scheduling points, so
       the finale may not perform them — the sweep runs inside this
       modeled thread instead, gated until the reader has drained.  The
       gate adds no branching: while disabled the writer is simply not
       runnable, and once enabled it is the only fiber left. *)
    Schedcheck.step "await reader drain" ~enabled:(fun () ->
        !readers_done = 1);
    check (E.active_readers e = 0) "epoch: reader slot not empty at end";
    let v = E.load e in
    check
      (v.E.vlsn = publishes && not v.E.reclaimed)
      "epoch: current version wrong or reclaimed at end";
    (* Every reader is gone, so one more sweep must free everything
       the publishes retired. *)
    ignore (E.reclaim e : int);
    check (E.retired_count e = 0) "epoch: retired versions left unreclaimed";
    check
      (E.reclaimed_total e = publishes)
      "epoch: reclaimed count does not match retired count"
  in
  Schedcheck.scenario [ ("reader", reader); ("writer", writer) ]

(* Two readers sharing one slot: the counted-registration path (the
   second enter piggybacks on the first's — possibly older — epoch).
   The invariants are the same; what this adds is exhausting the
   enter/exit counting against concurrent retirement. *)
let epoch_shared_slot () =
  let e = E.create ~slots:1 ~lsn:0 (0, 0) in
  let readers_done = ref 0 in
  let reader () =
    E.enter e ~slot:0;
    let v = E.load e in
    epoch_reader_checks "reader" v;
    E.exit_ e ~slot:0;
    incr readers_done
  in
  (* Enter/exit with no read in between: the pure counting race.  Its
     version checks would duplicate [reader]'s (and [epoch_readers]);
     dropping them keeps the three-thread space exhaustible. *)
  let racer () =
    E.enter e ~slot:0;
    E.exit_ e ~slot:0;
    incr readers_done
  in
  let writer () =
    E.publish e ~lsn:1 (1, 1);
    (* See [epoch_readers] for why the sweep lives here. *)
    Schedcheck.step "await reader drain" ~enabled:(fun () ->
        !readers_done = 2);
    check (E.active_readers e = 0) "epoch: shared slot not empty at end";
    ignore (E.reclaim e : int);
    check (E.retired_count e = 0) "epoch: retired versions left unreclaimed"
  in
  Schedcheck.scenario
    [ ("reader", reader); ("racer", racer); ("writer", writer) ]

(* Detector of the detector: a writer that reclaims without honouring
   the reader slots.  The explorer must find a schedule where a reader
   still inside its epoch observes its version reclaimed. *)
let epoch_broken_reclaim () =
  let e = E.create ~slots:1 ~lsn:0 (0, 0) in
  let reader () =
    E.enter e ~slot:0;
    let v = E.load e in
    Schedcheck.yield "reading";
    epoch_reader_checks "reader" v;
    E.exit_ e ~slot:0
  in
  let writer () =
    E.publish e ~lsn:1 (1, 1);
    (* The bug: freeing retired versions while a slot is registered. *)
    ignore (E.unsafe_reclaim_all e : int)
  in
  Schedcheck.scenario [ ("reader", reader); ("writer", writer) ]

(* Detector of the detector, torn-read edition: a writer that mutates
   the published payload in place instead of path-copying and
   publishing a fresh version.  The explorer must find a schedule where
   a reader observes the half-written pair. *)
let epoch_broken_mutation () =
  let p = [| 0; 0 |] in
  let e = E.create ~slots:1 ~lsn:0 p in
  let reader () =
    E.enter e ~slot:0;
    let v = E.load e in
    let a = v.E.payload.(0) in
    Schedcheck.yield "between reads";
    let b = v.E.payload.(1) in
    check (a = b) "reader: torn read (payload mutated under a live epoch)";
    E.exit_ e ~slot:0
  in
  let writer () =
    (* The bug: the "next version" shares structure it then mutates. *)
    Schedcheck.yield "mutate.0";
    p.(0) <- 1;
    Schedcheck.yield "mutate.1";
    p.(1) <- 1
  in
  Schedcheck.scenario [ ("reader", reader); ("writer", writer) ]

(* ------------------------------------------------------------------ *)

let failure_detector ~probes () =
  (* The real shipped detector ([lib/replica/detector.ml]) under the
     virtual scheduler: a prober thread runs a scripted sequence of
     heartbeat outcomes with a scheduling point while each probe is in
     flight, racing a ticker that advances virtual time and ages the
     detector.  The invariants are exactly the detector's contract:

     - the only transitions into Alive are caused by a probe success
       (so a peer never revives by aging — dead stays dead until a
       heartbeat actually answers), and
     - aging and failures only ever demote (alive → suspect → dead),
       so suspicion is never lost while a probe is still in flight. *)
  let module D = Sdb_replica.Detector in
  let m = Schedcheck.Mutex.create "detector.mutex" in
  let cfg =
    { D.heartbeat_interval_s = 1.0; suspect_after_s = 2.0; dead_after_s = 4.0 }
  in
  let now = ref 0.0 in
  let d = D.create ~now:!now cfg in
  let seen = ref [] in
  let note tr = match tr with None -> () | Some tr -> seen := tr :: !seen in
  let rank = function D.Alive -> 0 | D.Suspect -> 1 | D.Dead -> 2 in
  let prober () =
    List.iter
      (fun ok ->
        Schedcheck.Mutex.atomically m "probe start" (fun () ->
            D.probe_started d);
        (* The RPC is in flight: everything else may interleave here. *)
        Schedcheck.yield "probe in flight";
        Schedcheck.Mutex.atomically m "probe done" (fun () ->
            let t = !now in
            note (if ok then D.probe_succeeded d ~now:t
                  else D.probe_failed d ~now:t)))
      probes
  in
  let ticker () =
    for _ = 1 to 3 do
      Schedcheck.Mutex.atomically m "advance and tick" (fun () ->
          now := !now +. 2.5;
          note (D.tick d ~now:!now))
    done
  in
  let check_transitions () =
    List.iter
      (fun tr ->
        (match tr.D.tr_cause with
        | `Success -> ()
        | `Failure | `Timeout ->
          check
            (rank tr.D.tr_to > rank tr.D.tr_from)
            "detector: failure/aging transition did not demote");
        check
          (tr.D.tr_to <> D.Alive || tr.D.tr_cause = `Success)
          "detector: revived without a successful heartbeat")
      !seen
  in
  Schedcheck.scenario ~invariant:check_transitions
    ~finale:(fun () ->
      check_transitions ();
      (* The ticker alone pushed age past dead_after_s: unless the very
         last recorded outcome is a success, the peer must not be
         Alive at the end. *)
      match !seen with
      | { D.tr_cause = `Success; _ } :: _ -> ()
      | _ ->
        check
          (D.state d <> D.Alive || List.for_all (fun ok -> ok) probes
           && !seen = [])
          "detector: alive at end without a closing success")
    [ ("prober", prober); ("ticker", ticker) ]
