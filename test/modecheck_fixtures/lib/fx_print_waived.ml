(* Waived twin of fx_print. *)

let greet () =
  (print_endline "hi" [@sdb.check.allow "print-in-lib: fixture waiver"])
