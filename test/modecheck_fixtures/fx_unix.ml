(* Seeded violation for [unix-io]: file I/O straight through Unix,
   outside lib/storage, where Fs's fault injection cannot see it. *)

let remove path = Unix.unlink path
