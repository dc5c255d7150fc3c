(* Seeded violation for [print-in-lib]: a library writing to stdout. *)

let greet () = print_endline "hi"
