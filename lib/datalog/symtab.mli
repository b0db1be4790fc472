(** String interning: bijective mapping between symbol strings and dense
    integer ids, so that relations store plain integer tuples (the paper's
    setting — Soufflé likewise maps all symbols into a numeric domain).

    The table is open-addressed over one flat [int array] whose slots
    each pack a string's hash beside its id: a lookup compares strings
    only on an equal hash, and growing the table re-places slots from
    the stored hashes without reading a string — interning a batch of
    fresh long symbols costs one hash and one probe each.  Not
    synchronised: one domain at a time. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Stable id for the string; allocates the next id on first sight. *)

val find_opt : t -> string -> int option
val name : t -> int -> string
(** @raise Not_found if the id was never allocated. *)

val size : t -> int
