(* Printing outside lib/ is a tool's business: no [print-in-lib]. *)

let greet () = print_endline "hi"
