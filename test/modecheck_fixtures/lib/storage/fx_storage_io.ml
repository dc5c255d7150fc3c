(* lib/storage is where file I/O lives: no [unix-io] here. *)

let remove path = Unix.unlink path
