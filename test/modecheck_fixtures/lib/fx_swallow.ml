(* Seeded violations for [swallow]: a catch-all handler and a bare
   ignore. *)

let work () = ()
let compute x = x + 1

let quiet () =
  try work () with _ -> ()

let drop x = ignore (compute x)
