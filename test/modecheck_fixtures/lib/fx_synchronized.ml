(* The disciplined twin of the discipline fixtures: module-level state
   in a synchronized module, locks paired directly, through with_lock
   and through Fun.protect, a named handler and an ascribed ignore. *)

let cache = ref 0
let m = Mutex.create ()
let mu = Sdb_check.Mu.make "fx.synchronized"

let get () =
  Mutex.lock m;
  let v = !cache in
  Mutex.unlock m;
  v

let set v = Sdb_check.Mu.with_lock mu (fun () -> cache := v)

let bump () =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> incr cache)

let parse s = try int_of_string s with Failure _ -> 0
let discard s = ignore (parse s : int)
