(* Waived twin of fx_mutex. *)

let work () = ()
let m = Mutex.create ()

let handed_off () =
  (Mutex.lock m [@sdb.check.allow "mutex-pairing: fixture waiver"]);
  work ()
