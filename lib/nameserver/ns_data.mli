(** The name server's in-memory data structure and its pure operations.

    "The virtual memory data structure for the name server's database
    consists primarily of a tree of hash tables.  The tables are
    indexed by strings, and deliver values that are further hash
    tables" (§3).  Each node additionally carries an optional string
    value, so the structure is a general name-to-value mapping whose
    values are trees with string-labelled arcs. *)

type node = {
  mutable value : string option;
  children : (string, node) Hashtbl.t;
}
(** The live, mutable representation. *)

type tree = Tree of { tvalue : string option; tchildren : (string * tree) list }
(** The immutable exchange representation used in update parameters,
    exports, and over RPC.  Children are kept sorted by label so equal
    trees have equal pickles. *)

val codec_node : node Sdb_pickle.Pickle.t
val codec_tree : tree Sdb_pickle.Pickle.t

val empty_node : unit -> node
val leaf : string option -> tree
val tree : ?value:string -> (string * tree) list -> tree

(** {1 Navigation} *)

val find : node -> Name_path.t -> node option
val mem : node -> Name_path.t -> bool
val ensure : node -> Name_path.t -> node
(** Find the node, creating missing intermediate nodes (valueless). *)

(** {1 Mutation (used by [apply])} *)

val set_value : node -> Name_path.t -> string option -> unit
val delete_subtree : node -> Name_path.t -> unit
(** Deleting the root clears it; deleting an absent path is a no-op. *)

val graft : node -> Name_path.t -> tree -> unit
(** Replace the subtree at the path with a materialization of [tree],
    creating intermediates. *)

(** {1 Conversion} *)

val materialize : tree -> node
val snapshot : ?depth:int -> node -> tree
(** [depth] bounds descent; [depth:0] is just the node's value. *)

(** {1 Enumeration} *)

val fold_bindings :
  ?prune:(Name_path.t -> bool) -> node ->
  init:'acc -> f:('acc -> Name_path.t -> string option -> 'acc) -> 'acc
(** Depth-first fold over every node (root excluded), visiting children
    in sorted label order.  [prune p] returning [false] skips the node
    at [p] and its whole subtree — how glob search avoids walking the
    world. *)

(** {1 Measures and comparison} *)

val count_nodes : node -> int
val weight_bytes : node -> int
(** Rough memory footprint: labels + values, for benchmark sizing. *)

(** {1 Persistent representation}

    The path-copied form the engine's state actually uses: an update
    builds the next version by copying only the path it touches
    (O(depth · log fanout)), sharing every untouched subtree with the
    previous version.  That makes versions immutable — the property
    the epoch-published read path ([Sdb_epoch]) and the O(1)
    checkpoint snapshot rely on: a published root can be read from any
    domain with no lock while the writer builds its successor. *)

module Smap : Map.S with type key = string

type pnode = { pvalue : string option; pchildren : pnode Smap.t }

val empty_pnode : pnode
val codec_pnode : pnode Sdb_pickle.Pickle.t
(** The wire format of {!codec_tree} (wrapped as ["ns.pnode"]), written
    straight from the maps in label order and read straight into them:
    equal stores give equal bytes (canonical, unlike the
    insertion-ordered {!codec_node}), byte for byte what pickling
    [psnapshot n] with {!codec_tree} gives.  Unsorted or repeated
    labels on the wire load as {!pof_tree} loads them. *)

val pfind : pnode -> Name_path.t -> pnode option
val pmem : pnode -> Name_path.t -> bool

val pensure : pnode -> Name_path.t -> pnode
(** The root with the path present (valueless intermediates created). *)

val pset_value : pnode -> Name_path.t -> string option -> pnode
val pdelete_subtree : pnode -> Name_path.t -> pnode
(** Deleting the root empties it; an absent path is a no-op. *)

val pgraft : pnode -> Name_path.t -> tree -> pnode
val pof_tree : tree -> pnode
val psnapshot : ?depth:int -> pnode -> tree

val pchildren_labels : pnode -> string list
(** Sorted. *)

val pfold_bindings :
  ?prune:(Name_path.t -> bool) -> pnode ->
  init:'acc -> f:('acc -> Name_path.t -> string option -> 'acc) -> 'acc
(** Like {!fold_bindings}, over the persistent form. *)

val pcount_nodes : pnode -> int
val pweight_bytes : pnode -> int

val equal_tree : tree -> tree -> bool
val equal_node : node -> node -> bool
val pp_tree : Format.formatter -> tree -> unit
