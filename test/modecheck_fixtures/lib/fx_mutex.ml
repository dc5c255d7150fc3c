(* Seeded violations for [mutex-pairing], one per lock module: a lock
   whose top-level item never unlocks the same lock expression. *)

let work () = ()
let m = Mutex.create ()
let mu = Sdb_check.Mu.make "fx.pairing"
let sm = Sdb_schedcheck.Schedcheck.Mutex.create "fx.pairing"

let stdlib_unpaired () =
  Mutex.lock m;
  work ()

let mu_unpaired () =
  Sdb_check.Mu.lock mu;
  work ()

let schedcheck_unpaired () =
  Sdb_schedcheck.Schedcheck.Mutex.lock sm;
  work ()

(* Unlocking a different lock does not pair. *)
let mismatched a b =
  Mutex.lock a;
  Mutex.unlock b
