(* Every waiver form but [@sdb.check.allow "rule: reason"] is an [attr]
   finding and waives nothing, so each line also keeps its
   [print-in-lib]: a reason with no rule, an empty reason, an unknown
   rule, no payload, and an sdb.* attribute that is not the waiver. *)

let bare () = (print_endline "a" [@sdb.check.allow "no rule named here"])
let empty () = (print_endline "b" [@sdb.check.allow "print-in-lib:"])
let unknown () = (print_endline "c" [@sdb.check.allow "printing: reason"])
let no_payload () = (print_endline "d" [@sdb.check.allow])
let other_name () = (print_endline "e" [@sdb.allow "print-in-lib: reason"])
