(* Waived twin of fx_swallow: a justified waiver on the handler, and an
   ignore whose ascription states what is dropped. *)

let work () = ()
let compute x = x + 1

let quiet () =
  ((try work () with _ -> ()) [@sdb.check.allow "swallow: fixture waiver"])

let drop x = ignore (compute x : int)
