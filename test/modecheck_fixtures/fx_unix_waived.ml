(* Waived twin of fx_unix: the same call, with a justified waiver. *)

let remove path =
  (Unix.unlink path [@sdb.check.allow "unix-io: fixture waiver"])
