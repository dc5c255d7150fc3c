(* [unix-io] through names only path resolution sees: a module alias
   and a local open both still reach Unix. *)

module U = Unix

let remove path = U.unlink path

let sync fd =
  let open Unix in
  fsync fd
